package blockstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// internBatch interns n distinct 4 KiB payloads and returns their refs
// and the payloads concatenated in ref order.
func internBatch(t *testing.T, s *Store, seed int64, n int) ([]Ref, []byte) {
	t.Helper()
	chunks := make([][]byte, n)
	var all []byte
	for i := range chunks {
		chunks[i] = testPayload(seed+int64(i), 4096)
		all = append(all, chunks[i]...)
	}
	refs, err := s.Intern(chunks)
	if err != nil {
		t.Fatalf("Intern: %v", err)
	}
	return refs, all
}

// TestReadIntoRoundTrip reads batches across the one-reader / several-
// reader boundary at one and two procs, appending behind an existing
// prefix, and checks the output byte-exact.
func TestReadIntoRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	refs, all := internBatch(t, s, 1, 100)
	prefix := []byte("prefix")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 15, 16, 17, 33, 64, 100} {
			got, err := s.ReadInto(append([]byte(nil), prefix...), refs[:n])
			if err != nil {
				t.Fatalf("procs %d, %d refs: %v", procs, n, err)
			}
			want := append(append([]byte(nil), prefix...), all[:n*4096]...)
			if !bytes.Equal(got, want) {
				t.Fatalf("procs %d, %d refs: output diverged", procs, n)
			}
		}
	}
	if _, err := s.ReadInto(nil, []Ref{refs[0], {ID: IDOf([]byte("absent")), Len: 6}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadInto of an unknown ref: %v, want ErrNotFound", err)
	}
	s.Close()
	if _, err := s.ReadInto(nil, refs); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadInto after Close: %v, want ErrClosed", err)
	}
}

// TestCorruptBlockDetected damages one block file in each way the
// store must catch, at the first, a middle and the last ref of a
// 64-ref batch (two readers at GOMAXPROCS 2, the middle ref opening
// the second range). Get and ReadInto must both fail with ErrCorrupt
// naming the bad block, and ReadInto must return no bytes. Each case
// restores the file afterwards and the batch must read clean again.
func TestCorruptBlockDetected(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := mustOpen(t, t.TempDir())
	refs, all := internBatch(t, s, 100, 64)
	cases := []struct {
		name string
		rot  func(path string, raw []byte) error
	}{
		{"payload bit flip", func(path string, raw []byte) error {
			return os.WriteFile(path, flipByte(raw, 100), 0o644)
		}},
		{"bad footer magic", func(path string, raw []byte) error {
			return os.WriteFile(path, flipByte(raw, len(raw)-blockFooterSize), 0o644)
		}},
		{"truncated file", func(path string, raw []byte) error {
			return os.Truncate(path, 10)
		}},
		{"file one byte too long", func(path string, raw []byte) error {
			return os.WriteFile(path, append(append([]byte(nil), raw...), 0), 0o644)
		}},
		{"missing payload file", func(path string, raw []byte) error {
			return os.Remove(path)
		}},
		{"footer CRC differs from index", func(path string, raw []byte) error {
			return os.WriteFile(path, flipByte(raw, len(raw)-1), 0o644)
		}},
	}
	for _, tc := range cases {
		for _, at := range []int{0, len(refs) / 2, len(refs) - 1} {
			t.Run(fmt.Sprintf("%s/ref%d", tc.name, at), func(t *testing.T) {
				bad := refs[at]
				path := s.BlockPath(bad.ID)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.rot(path, raw); err != nil {
					t.Fatal(err)
				}
				_, err = s.Get(bad)
				checkCorrupt(t, "Get", err, bad.ID)
				got, err := s.ReadInto([]byte("prefix"), refs)
				checkCorrupt(t, "ReadInto", err, bad.ID)
				if got != nil {
					t.Errorf("ReadInto returned %d bytes beside its error", len(got))
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if got, err := s.ReadInto(nil, refs); err != nil || !bytes.Equal(got, all) {
					t.Fatalf("batch after repair: err %v, byte-exact %v", err, bytes.Equal(got, all))
				}
			})
		}
	}
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0xff
	return out
}

func checkCorrupt(t *testing.T, op string, err error, id ID) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: %v, want ErrCorrupt", op, err)
	} else if !strings.Contains(err.Error(), id.String()) {
		t.Errorf("%s: error %q does not name block %s", op, err, id)
	}
}

// TestRaceReadIntoDuringInternReleaseGC reads a live batch from
// several goroutines while others intern and release unrelated blocks
// and run GC on the same store, so GC deletes files beside the reads.
// Every read must stay byte-exact; run it under -race.
func TestRaceReadIntoDuringInternReleaseGC(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := mustOpen(t, t.TempDir())
	live, all := internBatch(t, s, 1000, 48)
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 4) // one per goroutine: each sends at most once
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for i := 0; i < rounds; i++ {
				got, err := s.ReadInto(buf[:0], live)
				if err != nil {
					errs <- fmt.Errorf("ReadInto: %w", err)
					return
				}
				if !bytes.Equal(got, all) {
					errs <- errors.New("ReadInto output diverged")
					return
				}
				buf = got
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			refs, err := s.Intern([][]byte{testPayload(int64(5000+i), 512), testPayload(int64(6000+i), 4096)})
			if err != nil {
				errs <- fmt.Errorf("Intern: %w", err)
				return
			}
			if err := s.Release(refs); err != nil {
				errs <- fmt.Errorf("Release: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.GC(); err != nil {
				errs <- fmt.Errorf("GC: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := s.GC(); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	if st := s.Stats(); st.Blocks != len(live) {
		t.Fatalf("%d blocks after final GC, want the %d live ones", st.Blocks, len(live))
	}
}
