package blockstore

import (
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
)

// minRefsPerReader is how many refs earn ReadInto one more reader: a
// batch gets ⌈len(refs)/16⌉ of them (at most GOMAXPROCS), so a small
// read stays inline instead of paying a goroutine start and join for a
// handful of files.
const minRefsPerReader = 16

// ReadInto appends the payloads of refs, in order, to dst and returns
// the extended slice. Every block passes the same checks as Get (see
// verifyBlock), so no byte reaches the output unverified. The refs are
// resolved in the index under one lock acquisition and the output is
// sized once; the blocks are then read in contiguous ranges over
// min(GOMAXPROCS, ⌈len(refs)/16⌉) goroutines that ReadInto starts and
// joins before it returns (one range runs inline). Each reader reuses
// one scratch buffer across its range. Nothing is cached: every call
// re-reads every block from disk, so rot under a hot block surfaces on
// its next read.
//
// On failure ReadInto returns nil and an error: ErrClosed after Close,
// ErrNotFound if the index lacks any ref (checked before any read),
// otherwise that of the first ref in refs order whose block fails,
// ErrCorrupt naming the block for every verification failure.
func (s *Store) ReadInto(dst []byte, refs []Ref) ([]byte, error) {
	ents := make([]entry, len(refs))
	total := 0
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	for i, r := range refs {
		e, ok := s.entries[r.ID]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, r.ID)
		}
		ents[i] = e
		total += int(e.len)
	}
	s.mu.Unlock()

	base := len(dst)
	out := slices.Grow(dst, total)[:base+total]
	root := filepath.Join(s.dir, dataDirName)
	workers := min(runtime.GOMAXPROCS(0), (len(refs)+minRefsPerReader-1)/minRefsPerReader)
	if workers <= 1 {
		if err := readRange(out[base:], root, refs, ents); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Split refs into workers contiguous ranges of near-equal count;
	// each reader owns the disjoint slice of out its range fills.
	errs := make([]error, workers)
	var wg sync.WaitGroup
	lo, off := 0, base
	for w := 0; w < workers; w++ {
		hi := lo + (len(refs)-lo)/(workers-w)
		end := off
		for _, e := range ents[lo:hi] {
			end += int(e.len)
		}
		wg.Add(1)
		go func(w int, part []byte, refs []Ref, ents []entry) {
			defer wg.Done()
			errs[w] = readRange(part, root, refs, ents)
		}(w, out[off:end], refs[lo:hi], ents[lo:hi])
		lo, off = hi, end
	}
	wg.Wait()
	// Each reader stops at its first failure, so the first failed range
	// holds the first failing ref.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readRange reads and verifies the blocks of refs (whose index entries
// are ents) into out, which is exactly their payloads long. It stops
// at the first failure. One scratch buffer, sized for the largest
// block plus its footer plus one byte, serves the whole range.
func readRange(out []byte, root string, refs []Ref, ents []entry) error {
	var maxLen uint32
	for _, e := range ents {
		maxLen = max(maxLen, e.len)
	}
	scratch := make([]byte, int(maxLen)+blockFooterSize+1)
	path := make([]byte, 0, len(root)+2*idSize+8)
	for i, r := range refs {
		// Read one byte past the expected file length so an over-long
		// file is caught rather than silently cut to size.
		buf := scratch[:int(ents[i].len)+blockFooterSize+1]
		path = appendBlockPath(path[:0], root, r.ID)
		n, err := readBlockFile(string(path), buf)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return fmt.Errorf("%w: %s (payload file missing)", ErrCorrupt, r.ID)
			}
			return fmt.Errorf("blockstore: reading block %s: %w", r.ID, err)
		}
		p, err := verifyBlock(r, ents[i], buf[:n])
		if err != nil {
			return err
		}
		out = out[copy(out, p):]
	}
	return nil
}

// verifyBlock checks raw, the bytes read from ref's payload file (at
// most one past its expected length), against ref and the block's
// index entry e, and returns the payload. Every check must pass before
// any byte is returned: exact file length, footer magic, reference
// length against the index, payload CRC against both the footer and
// the index, and a full digest recomputation against the reference.
// Every failure is ErrCorrupt naming the block, so a caller can
// quarantine or repair instead of restoring garbage.
func verifyBlock(ref Ref, e entry, raw []byte) ([]byte, error) {
	n := len(raw) - blockFooterSize
	switch {
	case n < 0:
		return nil, fmt.Errorf("%w: block %s truncated at %d bytes", ErrCorrupt, ref.ID, len(raw))
	case n > int(e.len):
		return nil, fmt.Errorf("%w: block %s file is longer than its %d-byte payload and footer",
			ErrCorrupt, ref.ID, e.len)
	case n < int(e.len):
		return nil, fmt.Errorf("%w: block %s holds %d bytes, index says %d", ErrCorrupt, ref.ID, n, e.len)
	}
	p, footer := raw[:n], raw[n:]
	if getU32(footer) != blockMagic {
		return nil, fmt.Errorf("%w: block %s footer magic missing", ErrCorrupt, ref.ID)
	}
	if ref.Len != 0 && ref.Len != e.len {
		return nil, fmt.Errorf("%w: block %s reference says %d bytes, index %d",
			ErrCorrupt, ref.ID, ref.Len, e.len)
	}
	want := getU32(footer[4:])
	if got := crc32.Checksum(p, castagnoli); got != want || got != e.crc {
		return nil, fmt.Errorf("%w: block %s CRC %08x, footer %08x, index %08x",
			ErrCorrupt, ref.ID, got, want, e.crc)
	}
	if IDOf(p) != ref.ID {
		return nil, fmt.Errorf("%w: block %s bytes hash to a different ID", ErrCorrupt, ref.ID)
	}
	return p, nil
}

// appendBlockPath appends the payload file path of id under the data
// plane root to b: data/<first ID byte in hex>/<ID in hex>.blk.
func appendBlockPath(b []byte, root string, id ID) []byte {
	var h [2 * idSize]byte
	hex.Encode(h[:], id[:])
	b = append(b, root...)
	b = append(b, filepath.Separator)
	b = append(b, h[:2]...)
	b = append(b, filepath.Separator)
	b = append(b, h[:]...)
	return append(b, ".blk"...)
}
