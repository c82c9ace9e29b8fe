package merkle

import (
	"testing"
	"testing/quick"
)

func TestLeafMappingRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1025} {
		tr := New(n)
		seen := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			v := tr.LeafNode(i)
			if !tr.IsLeaf(v) {
				t.Fatalf("n=%d: LeafNode(%d)=%d is not a leaf", n, i, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: node %d mapped twice", n, v)
			}
			seen[v] = true
			if back := tr.LeafIndex(v); back != i {
				t.Fatalf("n=%d: LeafIndex(LeafNode(%d))=%d", n, i, back)
			}
		}
	}
}

func TestExplicitSmallTree(t *testing.T) {
	// n=6: N=11, perfect p=8, deepest level has 4 leaves (nodes 7-10),
	// level 2 contributes leaves 5,6. Data order: 7,8,9,10,5,6.
	tr := New(6)
	want := []int{7, 8, 9, 10, 5, 6}
	for i, w := range want {
		if got := tr.LeafNode(i); got != w {
			t.Fatalf("LeafNode(%d)=%d want %d", i, got, w)
		}
	}
	// Subtree ranges.
	cases := []struct{ node, lo, hi int }{
		{0, 0, 6},  // root
		{1, 0, 4},  // covers leaves 7,8,9,10
		{2, 4, 6},  // covers leaves 5,6
		{3, 0, 2},  // leaves 7,8
		{4, 2, 4},  // leaves 9,10
		{7, 0, 1},  // single leaf
		{6, 5, 6},  // single shallow leaf
		{10, 3, 4}, // deepest rightmost leaf
	}
	for _, c := range cases {
		lo, hi := tr.LeafRange(c.node)
		if lo != c.lo || hi != c.hi {
			t.Fatalf("LeafRange(%d)=[%d,%d) want [%d,%d)", c.node, lo, hi, c.lo, c.hi)
		}
	}
}

func TestLeafRangeInvariants(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%500) + 1
		tr := New(n)
		for v := 0; v < tr.NumNodes; v++ {
			lo, hi := tr.LeafRange(v)
			if lo < 0 || hi > n || lo >= hi {
				return false
			}
			if tr.IsLeaf(v) {
				if hi-lo != 1 || tr.LeafIndex(v) != lo {
					return false
				}
			} else {
				llo, lhi := tr.LeafRange(Left(v))
				rlo, rhi := tr.LeafRange(Right(v))
				// children partition the parent contiguously
				if llo != lo || lhi != rlo || rhi != hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParentChildFormulas(t *testing.T) {
	tr := New(33)
	for v := 1; v < tr.NumNodes; v++ {
		p := Parent(v)
		if Left(p) != v && Right(p) != v {
			t.Fatalf("node %d is not a child of its parent %d", v, p)
		}
	}
	if Parent(Left(10)) != 10 || Parent(Right(10)) != 10 {
		t.Fatal("parent/child round trip failed")
	}
}

func TestLevels(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 16, 100} {
		tr := New(n)
		levels := tr.Levels()
		covered := make(map[int]bool)
		prevDepth := 1 << 30
		for _, lv := range levels {
			d := Depth(lv[0])
			if d >= prevDepth {
				t.Fatalf("n=%d: levels not strictly ascending toward root", n)
			}
			prevDepth = d
			for v := lv[0]; v < lv[1]; v++ {
				if tr.IsLeaf(v) {
					t.Fatalf("n=%d: level contains leaf %d", n, v)
				}
				if covered[v] {
					t.Fatalf("n=%d: node %d in two levels", n, v)
				}
				covered[v] = true
				// Children must be leaves or in an earlier level.
				for _, c := range []int{Left(v), Right(v)} {
					if !tr.IsLeaf(c) && !covered[c] {
						t.Fatalf("n=%d: node %d processed before child %d", n, v, c)
					}
				}
			}
		}
		if len(covered) != n-1 {
			t.Fatalf("n=%d: levels covered %d internal nodes, want %d", n, len(covered), n-1)
		}
	}
}

func TestDepth(t *testing.T) {
	wants := map[int]int{0: 0, 1: 1, 2: 1, 3: 2, 6: 2, 7: 3, 14: 3, 15: 4}
	for v, d := range wants {
		if Depth(v) != d {
			t.Fatalf("Depth(%d)=%d want %d", v, Depth(v), d)
		}
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct{ dataLen, chunk, want int }{
		{0, 64, 1},
		{1, 64, 1},
		{64, 64, 1},
		{65, 64, 2},
		{128, 64, 2},
		{1000, 64, 16},
	}
	for _, c := range cases {
		if got := NumChunks(c.dataLen, c.chunk); got != c.want {
			t.Fatalf("NumChunks(%d,%d)=%d want %d", c.dataLen, c.chunk, got, c.want)
		}
	}
}

func TestNodeSpanClamping(t *testing.T) {
	// 10 chunks of 64 bytes over a 600-byte buffer: last chunk is short.
	tr := New(10)
	root := 0
	off, end := tr.NodeSpan(root, 64, 600)
	if off != 0 || end != 600 {
		t.Fatalf("root span [%d,%d) want [0,600)", off, end)
	}
	last := tr.LeafNode(9)
	off, end = tr.NodeSpan(last, 64, 600)
	if off != 576 || end != 600 {
		t.Fatalf("tail span [%d,%d) want [576,600)", off, end)
	}
}

func TestSpansTile(t *testing.T) {
	f := func(rawN uint8, rawChunk uint8) bool {
		n := int(rawN)%60 + 1
		chunk := int(rawChunk)%100 + 1
		dataLen := n*chunk - chunk/2 // short tail unless chunk==1
		if dataLen < 1 {
			dataLen = 1
		}
		nc := NumChunks(dataLen, chunk)
		tr := New(nc)
		total := 0
		for i := 0; i < nc; i++ {
			off, end := tr.NodeSpan(tr.LeafNode(i), chunk, dataLen)
			if off != i*chunk {
				return false
			}
			total += end - off
		}
		return total == dataLen
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestClone(t *testing.T) {
	tr := New(8)
	tr.Digests[3].H1 = 42
	c := tr.Clone()
	c.Digests[3].H1 = 7
	if tr.Digests[3].H1 != 42 {
		t.Fatal("clone aliases original digests")
	}
	if c.NumLeaves != tr.NumLeaves || c.NumNodes != tr.NumNodes {
		t.Fatal("clone geometry mismatch")
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr := New(1)
	if tr.NumNodes != 1 || !tr.IsLeaf(0) {
		t.Fatal("single-leaf tree malformed")
	}
	if tr.LeafNode(0) != 0 || tr.LeafIndex(0) != 0 {
		t.Fatal("single-leaf mapping wrong")
	}
	if lv := tr.Levels(); len(lv) != 0 {
		t.Fatalf("single-leaf tree has %d internal levels", len(lv))
	}
	lo, hi := tr.LeafRange(0)
	if lo != 0 || hi != 1 {
		t.Fatal("single-leaf range wrong")
	}
}

// spineLeafRange is the reference LeafRange: walk the leftmost and
// rightmost spines of v's subtree down to their leaves.
func spineLeafRange(t *Tree, v int) (lo, hi int) {
	l, r := v, v
	for !t.IsLeaf(l) {
		l = Left(l)
	}
	for !t.IsLeaf(r) {
		r = Right(r)
	}
	return t.LeafIndex(l), t.LeafIndex(r) + 1
}

// TestLeafRangeMatchesSpineWalk checks the closed-form LeafRange
// against the spine walk for every node of every tree with up to 4096
// leaves, and of a few large trees around a power of two.
func TestLeafRangeMatchesSpineWalk(t *testing.T) {
	check := func(n int) {
		tr := NewGeometry(n)
		for v := 0; v < tr.NumNodes; v++ {
			lo, hi := tr.LeafRange(v)
			wlo, whi := spineLeafRange(tr, v)
			if lo != wlo || hi != whi {
				t.Fatalf("n=%d: LeafRange(%d)=[%d,%d), spine walk [%d,%d)", n, v, lo, hi, wlo, whi)
			}
		}
	}
	for n := 1; n <= 4096; n++ {
		check(n)
	}
	for _, n := range []int{68620, 1<<20 - 1, 1 << 20, 1<<20 + 1} {
		check(n)
	}
}

func BenchmarkLeafRange(b *testing.B) {
	tr := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.LeafRange(i % tr.NumNodes)
	}
}

func BenchmarkLeafNodeMapping(b *testing.B) {
	tr := New(1<<20 - 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := tr.LeafNode(i % tr.NumLeaves)
		_ = tr.LeafIndex(v)
	}
}

func BenchmarkNodeSpan(b *testing.B) {
	const chunk = 128
	tr := NewGeometry(1<<20 - 3)
	dataLen := tr.NumLeaves*chunk - chunk/2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = tr.NodeSpan(i%tr.NumNodes, chunk, dataLen)
	}
}
