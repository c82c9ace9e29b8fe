package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/gpuckpt/gpuckpt/internal/merkle"
)

// sampleDiffs returns one representative diff per method, each with a
// non-empty metadata section where the format allows one.
func sampleDiffs() []*Diff {
	return []*Diff{
		{Method: MethodFull, CkptID: 0, DataLen: 40, ChunkSize: 8,
			Data: bytes.Repeat([]byte{1}, 40)},
		{Method: MethodBasic, CkptID: 1, DataLen: 40, ChunkSize: 8,
			Bitmap: []byte{0b00011}, Data: bytes.Repeat([]byte{2}, 16)},
		{Method: MethodList, CkptID: 1, DataLen: 40, ChunkSize: 8,
			FirstOcur: []uint32{4}, ShiftDupl: []ShiftRegion{{Node: 5, SrcNode: 4, SrcCkpt: 0}},
			Data: bytes.Repeat([]byte{3}, 8)},
		{Method: MethodTree, CkptID: 1, DataLen: 40, ChunkSize: 8,
			FirstOcur: []uint32{1}, ShiftDupl: []ShiftRegion{{Node: 6, SrcNode: 1, SrcCkpt: 1}},
			Data: bytes.Repeat([]byte{4}, 24)},
	}
}

// unorderedRegionDiffs returns Tree diffs that decode but whose
// first-occurrence regions are not disjoint and ascending, keyed by the
// fault. Over 5 chunks of 8 bytes, node 1 covers chunks [0,3), node 2
// [3,5), node 3 [0,2), node 4 [2,3) and node 7 [0,1).
func unorderedRegionDiffs() map[string]*Diff {
	tree := func(firsts ...uint32) *Diff {
		var n int
		geom := merkle.NewGeometry(5)
		for _, v := range firsts {
			off, end := geom.NodeSpan(int(v), 8, 40)
			n += end - off
		}
		return &Diff{Method: MethodTree, CkptID: 0, DataLen: 40, ChunkSize: 8,
			FirstOcur: firsts, Data: bytes.Repeat([]byte{5}, n)}
	}
	return map[string]*Diff{
		"descending":      tree(2, 1),
		"same first leaf": tree(3, 7),
		"overlapping":     tree(1, 4),
	}
}

// TestRecordRejectsUnorderedRegions decodes diffs whose region list is
// not disjoint and in chunk order; Append must reject each, while the
// same regions in order are accepted.
func TestRecordRejectsUnorderedRegions(t *testing.T) {
	roundTrip := func(d *Diff) *Diff {
		t.Helper()
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for name, d := range unorderedRegionDiffs() {
		err := NewRecord().Append(roundTrip(d))
		if err == nil || !strings.Contains(err.Error(), "not in chunk order") {
			t.Errorf("%s regions %v: Append err=%v, want \"not in chunk order\"", name, d.FirstOcur, err)
		}
	}
	ok := &Diff{Method: MethodTree, CkptID: 0, DataLen: 40, ChunkSize: 8,
		FirstOcur: []uint32{3, 4, 2}, Data: bytes.Repeat([]byte{5}, 40)}
	if err := NewRecord().Append(roundTrip(ok)); err != nil {
		t.Fatalf("disjoint ascending regions rejected: %v", err)
	}
}

// TestDiffDecodeTruncated truncates each method's encoding at every
// byte boundary. Every prefix crosses a different field — header
// scalars, region metadata, bitmap, data — and each must produce an
// error, never a panic or a partial diff.
func TestDiffDecodeTruncated(t *testing.T) {
	for _, d := range sampleDiffs() {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		for i := 0; i < len(enc); i++ {
			if got, err := Decode(bytes.NewReader(enc[:i])); err == nil {
				t.Errorf("%v diff truncated to %d/%d bytes decoded: %+v", d.Method, i, len(enc), got)
			}
		}
		if _, err := Decode(bytes.NewReader(enc)); err != nil {
			t.Errorf("%v valid diff rejected: %v", d.Method, err)
		}
	}
}

// corruptHeader encodes d, applies mutate to the header bytes, and
// returns the result of decoding the mutated stream.
func corruptHeader(t *testing.T, d *Diff, mutate func(hdr []byte)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	mutate(enc[:headerSize])
	_, err := Decode(bytes.NewReader(enc))
	return err
}

// TestDiffDecodeHeaderCorruption flips each header field to an invalid
// value and checks for the matching typed error.
func TestDiffDecodeHeaderCorruption(t *testing.T) {
	base := sampleDiffs()[3] // Tree: has every section populated
	cases := []struct {
		name    string
		mutate  func(hdr []byte)
		wantSub string
	}{
		{"bad magic", func(h []byte) { h[0] ^= 0xFF }, "bad magic"},
		{"bad version", func(h []byte) { h[4] = 99 }, "unsupported version"},
		{"bad method", func(h []byte) { h[5] = 42 }, "unknown method"},
		{"huge data length", func(h []byte) {
			binary.LittleEndian.PutUint64(h[10:], 1<<50)
		}, "implausible data length"},
		{"zero chunk size with metadata", func(h []byte) {
			binary.LittleEndian.PutUint32(h[18:], 0)
		}, "zero chunk size"},
		{"region count beyond tree", func(h []byte) {
			binary.LittleEndian.PutUint32(h[22:], 1<<31)
		}, "tree nodes"},
		{"shift count beyond tree", func(h []byte) {
			binary.LittleEndian.PutUint32(h[26:], 1<<31)
		}, "tree nodes"},
		{"bitmap beyond chunks", func(h []byte) {
			binary.LittleEndian.PutUint32(h[30:], 1<<30)
		}, "exceeds"},
		{"data beyond buffer", func(h []byte) {
			binary.LittleEndian.PutUint64(h[34:], 1<<40)
		}, "exceeds buffer length"},
		{"raw length beyond buffer", func(h []byte) {
			h[42] = 1 // pretend a codec
			binary.LittleEndian.PutUint64(h[43:], 1<<40)
		}, "raw data length"},
	}
	for _, tc := range cases {
		err := corruptHeader(t, base, tc.mutate)
		if err == nil {
			t.Errorf("%s: decoded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: err=%v, want substring %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestDiffDecodeLyingLengthBounded: a header declaring a 1 GiB data
// section, read from a reader that holds 100 bytes, must fail short
// without allocating anything near the declared size — a reader's Len
// is trusted only when it covers the declared length.
func TestDiffDecodeLyingLengthBounded(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleDiffs()[0].Encode(&buf); err != nil { // Full: no metadata
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:headerSize]
	binary.LittleEndian.PutUint64(hdr[10:], 1<<30) // DataLen
	binary.LittleEndian.PutUint64(hdr[34:], 1<<30) // data section length
	stream := append(append([]byte(nil), hdr...), make([]byte, 100-headerSize)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Decode of a 1 GiB claim over 100 bytes: %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Decode allocated %d bytes for a 100-byte stream, want < 1 MiB", alloc)
	}
}

// TestDiffDecodeWithoutLen decodes every sample through a reader that
// has no Len (one byte per Read), the growing-buffer path, and checks
// the re-encoding byte-exact.
func TestDiffDecodeWithoutLen(t *testing.T) {
	for _, d := range append(sampleDiffs(), benchDiff()) {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		got, err := Decode(iotest.OneByteReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("%v diff: %v", d.Method, err)
		}
		var again bytes.Buffer
		if err := got.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), enc) {
			t.Fatalf("%v diff: decode through a one-byte reader is not byte-exact", d.Method)
		}
	}
}
