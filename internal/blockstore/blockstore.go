// Package blockstore is a shared, content-addressed immutable block
// store with refcounted, crash-safe garbage collection — the storage
// plane that lets de-duplication cross lineage and tenant boundaries.
//
// A block is addressed by the 128-bit Murmur3 digest of its payload
// (the same hash family the paper's GPU kernels use to fingerprint
// chunks, §2.4), so identical chunks produced by ANY lineage resolve
// to the same on-disk file and are stored exactly once. Every block
// file carries a CRC32C footer and every read re-derives the digest,
// so bit rot surfaces as a typed ErrCorrupt, never as silently wrong
// restore bytes.
//
// # Planes
//
// Following the split index/data streams of klauspost/dedup and the
// hash-addressed block layout of blox, the store keeps three planes
// under one directory:
//
//   - data plane: data/xx/<hex>.blk — immutable payload files, fanned
//     out by the first ID byte, written once via temp+fsync+rename.
//   - index plane: blockstore.index — an atomic snapshot of every live
//     block's {length, CRC, refcount}, the commit record of GC.
//   - journal plane: blockstore.journal — an append-only, fsynced log
//     of refcount deltas since the last snapshot, replayed on open.
//
// # Crash safety
//
// Intern orders its writes so that a crash at any instant leaves the
// store consistent: the payload file is made durable first, then the
// journal records are appended and fsynced, and only then does the
// caller commit whatever references the block (a diff file rename).
// An orphaned payload with no journal record is therefore
// unreferenced by construction and is swept on the next open.
//
// GC is a transaction in the PR 4 idiom: fold journal into a new
// snapshot (refcounted entries only), commit it by atomic rename,
// reset the journal to the new generation, then delete zero-ref
// payload files. A crash before the rename loses nothing; a crash
// after it is completed on the next open (stale-generation journals
// are discarded — their effects are inside the snapshot — and
// unreferenced payload files are swept).
//
// Refcounts err on the side of leaking, never of freeing live data: a
// release is journaled only after the referencing file is durably
// gone, so a crash in between leaves an over-count (reclaimed by a
// later release-less GC never — documented leak) rather than an
// under-count that would let GC delete a block a restore still needs.
package blockstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"github.com/gpuckpt/gpuckpt/internal/metrics"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
)

const (
	// idSize is the byte length of a block ID: a full Murmur3 x64
	// 128-bit digest.
	idSize = 16

	// idSeed is the fixed Murmur3 seed of block addressing. Content
	// addressing only de-duplicates across independent producers if
	// every producer derives the same ID from the same bytes, so this
	// seed is a format constant, never a configuration knob.
	idSeed uint32 = 0x9747b28c

	// blockFooterSize is the per-block integrity footer: 4-byte magic
	// plus the CRC32C of the payload.
	blockFooterSize = 8
	blockMagic      = 0x4b_4c_42_47 // "GBLK"

	// DirName is the conventional name of a shared block store
	// directory placed next to the lineage directories it serves
	// (e.g. a ckptd root holds <root>/_blocks beside <root>/<lineage>).
	// The leading underscore keeps it out of the server's lineage
	// namespace.
	DirName = "_blocks"

	indexFileName   = "blockstore.index"
	journalFileName = "blockstore.journal"
	lockFileName    = "blockstore.lock"
	dataDirName     = "data"
	tmpSuffix       = ".tmp"
)

// IDSize is the byte length of an ID, for formats that embed block
// references.
const IDSize = idSize

// ID is the content address of a block: the canonical serialization of
// the Murmur3 128-bit digest of its payload.
type ID [idSize]byte

// IDOf derives the content address of a payload.
func IDOf(p []byte) ID {
	return ID(murmur3.Sum128(p, idSeed).Bytes())
}

// String renders the ID as lowercase hex.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Ref is a durable reference to one stored block: the address plus the
// payload length, which lets a reader pre-validate reassembly sizes
// without touching the data plane.
type Ref struct {
	ID  ID
	Len uint32
}

// Errors.
var (
	// ErrCorrupt matches every integrity failure surfaced by the
	// store: block checksum or digest mismatches, rotten index or
	// journal bytes. Callers branch on it with errors.Is.
	ErrCorrupt = errors.New("blockstore: corrupt")
	// ErrNotFound reports a Get/AddRef of a block the store does not
	// hold.
	ErrNotFound = errors.New("blockstore: block not found")
	// ErrCollision reports an intern whose payload hashes to an
	// existing ID but disagrees with the stored length or CRC — the
	// astronomically unlikely 128-bit collision, refused rather than
	// silently aliased.
	ErrCollision = errors.New("blockstore: block ID collision")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("blockstore: store is closed")
	// ErrUnderflow reports a Release of a reference the store does not
	// hold. The count clamps at zero instead of wrapping; callers doing
	// best-effort cleanup (pruning files that may predate the store)
	// treat it as a soft failure.
	ErrUnderflow = errors.New("blockstore: refcount underflow")
	// ErrReadOnly reports a mutating operation on a store opened with
	// Options.ReadOnly.
	ErrReadOnly = errors.New("blockstore: store is read-only")
	// ErrBusy reports a writable Open of a directory whose lock another
	// live Store holds (typically a running ckptd server). Retry later,
	// or open with Options.ReadOnly to inspect alongside the owner.
	ErrBusy = errors.New("blockstore: store directory is locked by another owner")
)

// Hooks intercepts the GC transaction at its crash points; tests use
// them to kill the process (by returning an error that aborts the
// transaction with state exactly as a dying process would leave it).
// Production stores leave it nil.
type Hooks struct {
	// BeforeGCCommit runs after zero-ref blocks are identified, before
	// the new index snapshot is renamed into place.
	BeforeGCCommit func() error
	// AfterGCCommit runs after the snapshot rename, before the journal
	// reset and the deletion of zero-ref payload files.
	AfterGCCommit func() error
}

// Options parameterizes Open.
type Options struct {
	// ChunkSize is the granularity producers split payloads at before
	// interning (default 4096). It is a property of the store, not of
	// each producer: cross-lineage de-duplication requires every
	// producer to chunk identically.
	ChunkSize int

	// ReadOnly opens the store without running mutating recovery (no
	// temp sweep, no journal rewrite, no orphan sweep), without taking
	// the directory lock, and without an append handle: Intern,
	// Release, and GC return ErrReadOnly. This is the safe way for
	// tooling to inspect a store whose writable lock a live ckptd
	// server holds — the reader sees the state as of its open (the
	// owner's later interns are invisible) but can never delete a
	// payload file the owner is about to commit a reference to.
	ReadOnly bool
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Blocks and StoredBytes describe the live data plane.
	Blocks      int
	StoredBytes int64
	// Interned counts unique blocks written since open; DedupHits
	// counts interns resolved to an already-present block; SavedBytes
	// sums the payload bytes those hits avoided writing.
	Interned  uint64
	DedupHits uint64
	// SavedBytes is the cross-producer de-duplication win: bytes that
	// were referenced but never stored twice.
	SavedBytes uint64
	// GCBlocks / GCBytes count blocks and payload bytes reclaimed by
	// committed GC transactions since open.
	GCBlocks uint64
	GCBytes  uint64
}

// Store is a content-addressed block store rooted at one directory.
// It is safe for concurrent use by multiple goroutines (and is
// typically shared by every FileStore of a server). Writable opens are
// serialized by an advisory directory lock — a second writable Open
// while an owner lives fails with ErrBusy instead of running mutating
// recovery (orphan sweep, journal rewrite) under the owner's feet.
// Read-only opens coexist with a live owner; see Options.ReadOnly.
type Store struct {
	dir   string
	chunk int

	// entries, gen, journal, closed, hooks, jbuf and lock are protected
	// by mu. Helpers that run with mu already held carry a
	// //ckptlint:locked mu precondition, which the guardedby analyzer
	// verifies at every call site.
	mu sync.Mutex
	//ckptlint:guardedby mu
	entries map[ID]entry
	//ckptlint:guardedby mu
	gen uint64
	//ckptlint:guardedby mu
	journal *os.File
	//ckptlint:guardedby mu
	closed bool
	//ckptlint:guardedby mu
	hooks *Hooks
	// jbuf is the reusable journal-batch staging buffer.
	//ckptlint:guardedby mu
	jbuf []byte

	// ro marks a store opened with Options.ReadOnly; mutations return
	// ErrReadOnly. Set once in Open, immutable afterwards.
	ro bool
	// lock is the held writable-owner lock file handle (nil in
	// read-only mode or where the platform offers no flock).
	//ckptlint:guardedby mu
	lock *os.File

	interned  metrics.Counter //ckptlint:atomic
	dedupHits metrics.Counter //ckptlint:atomic
	savedB    metrics.Counter //ckptlint:atomic
	gcBlocks  metrics.Counter //ckptlint:atomic
	gcBytes   metrics.Counter //ckptlint:atomic
}

// New creates (or reopens) a block store directory. It is Open with
// default options; both spellings carry the same Close contract.
func New(dir string) (*Store, error) { return Open(dir, Options{}) }

// Open creates or reopens a block store. A writable open first takes
// the directory's advisory owner lock (ErrBusy if another live Store
// holds it), then runs recovery before the store is usable: stale temp
// files are swept, a stale-generation journal (the tail of a GC that
// committed its snapshot but crashed before resetting the journal) is
// discarded, the journal is replayed onto the snapshot and rewritten
// canonically if the on-disk file carried a torn tail, and
// unreferenced payload files are deleted — completing both interrupted
// GC deletions and torn interns.
//
// With Options.ReadOnly the directory must already exist, no lock is
// taken, and recovery is in-memory only: nothing on disk is touched.
//
// The returned Store must be Closed when no longer needed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 4096
	}
	s := &Store{dir: dir, chunk: opts.ChunkSize, ro: opts.ReadOnly}
	// Nothing shares the store yet, but recovery runs through the same
	// locked helpers the steady state uses; holding mu for the rest of
	// Open keeps their precondition true and is uncontended.
	s.mu.Lock()
	defer s.mu.Unlock()
	if opts.ReadOnly {
		if fi, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("blockstore: opening %s read-only: %w", dir, err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("blockstore: %s is not a directory", dir)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := os.MkdirAll(filepath.Join(dir, dataDirName), 0o755); err != nil {
		return nil, fmt.Errorf("blockstore: creating %s: %w", dir, err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	s.lock = lock
	fail := func(err error) (*Store, error) {
		releaseDirLock(lock)
		return nil, err
	}
	if err := s.sweepTemp(); err != nil {
		return fail(err)
	}
	if err := s.recover(); err != nil {
		return fail(err)
	}
	j, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fail(fmt.Errorf("blockstore: opening journal: %w", err))
	}
	s.journal = j
	return s, nil
}

// Close releases the journal handle and the owner lock. Idempotent; a
// closed store rejects every other operation.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var jerr error
	if s.journal != nil {
		jerr = s.journal.Close()
		s.journal = nil
	}
	releaseDirLock(s.lock)
	s.lock = nil
	if jerr != nil {
		return fmt.Errorf("blockstore: closing journal: %w", jerr)
	}
	return nil
}

// failLocked transitions the store to closed after an unrecoverable
// post-commit failure, so no further mutation can reach a journal
// whose on-disk generation no longer matches the committed index.
//
//ckptlint:locked mu
func (s *Store) failLocked(err error) error {
	s.closed = true
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	releaseDirLock(s.lock)
	s.lock = nil
	return fmt.Errorf("%w (store disabled; reopen to recover)", err)
}

// SetHooks installs GC crash hooks. Test-only seam.
func (s *Store) SetHooks(h *Hooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ChunkSize returns the store's intern granularity.
func (s *Store) ChunkSize() int { return s.chunk }

// ReadOnly reports whether the store was opened with Options.ReadOnly.
func (s *Store) ReadOnly() bool { return s.ro }

// LockingSupported reports whether this platform enforces the writable
// owner lock (flock). Where false, writable opens never return ErrBusy
// and single-owner discipline falls to the operator.
func LockingSupported() bool { return lockingSupported }

func (s *Store) indexPath() string   { return filepath.Join(s.dir, indexFileName) }
func (s *Store) journalPath() string { return filepath.Join(s.dir, journalFileName) }

// BlockPath returns the payload file of id. Exposed for forensics and
// fault-injection tests; production readers go through ReadInto (or
// Get, its single-block form), which verify every byte they return.
func (s *Store) BlockPath(id ID) string {
	return string(appendBlockPath(nil, filepath.Join(s.dir, dataDirName), id))
}

// sweepTemp removes temp debris left by a crash between CreateTemp
// and rename, in both the store root and the data fan-out.
func (s *Store) sweepTemp() error {
	var sweep func(dir string) error
	sweep = func(dir string) error {
		entries, err := os.ReadDir(dir)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return fmt.Errorf("blockstore: sweeping %s: %w", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				if err := sweep(filepath.Join(dir, e.Name())); err != nil {
					return err
				}
				continue
			}
			if strings.HasSuffix(e.Name(), tmpSuffix) {
				if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
					return fmt.Errorf("blockstore: removing stale temp %s: %w", e.Name(), err)
				}
			}
		}
		return nil
	}
	return sweep(s.dir)
}

// recover loads the snapshot, replays (or discards) the journal,
// rewrites the journal canonically when the on-disk bytes are not, and
// sweeps unreferenced payload files. In read-only mode recovery is
// in-memory only: torn tails and stale journals are dropped from the
// replayed state but every file is left exactly as found.
//
//ckptlint:locked mu
func (s *Store) recover() error {
	s.entries = make(map[ID]entry)
	s.gen = 0
	if b, err := os.ReadFile(s.indexPath()); err == nil {
		gen, entries, derr := DecodeIndex(b)
		if derr != nil {
			return fmt.Errorf("blockstore: index %s: %w", s.indexPath(), derr)
		}
		s.gen, s.entries = gen, entries
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("blockstore: reading index: %w", err)
	}

	// keep holds the journal records that survive recovery; canonical
	// reports whether the on-disk journal already IS exactly those
	// records (right generation, no torn tail, no extra bytes).
	var keep []journalRec
	canonical := false
	if b, err := os.ReadFile(s.journalPath()); err == nil {
		gen, recs, derr := DecodeJournal(b)
		switch {
		case derr != nil:
			return fmt.Errorf("blockstore: journal %s: %w", s.journalPath(), derr)
		case gen != s.gen:
			// A GC committed its snapshot (folding this journal in) but
			// crashed before resetting the journal: discard it.
		default:
			for _, r := range recs {
				s.applyRec(r)
			}
			keep = recs
			canonical = len(b) == journalHdrSize+len(recs)*journalRecSize
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("blockstore: reading journal: %w", err)
	}
	if s.ro {
		return nil
	}
	if !canonical {
		// The on-disk journal is stale, missing, or ends in a torn
		// tail. It MUST be rewritten before the append handle opens:
		// records appended after torn garbage sit misaligned, and the
		// next open's decode would classify every one of them as more
		// torn tail — silently dropping durably committed references
		// and then sweeping their payload files.
		if err := s.rewriteJournal(keep); err != nil {
			return err
		}
	}
	return s.sweepOrphans()
}

// applyRec folds one journal record into the in-memory state.
// Refcount underflow (a Release journaled twice around a crash is
// impossible by ordering, but rot is not) clamps at zero rather than
// wrapping.
//
//ckptlint:locked mu
func (s *Store) applyRec(r journalRec) {
	e := s.entries[r.id]
	switch r.op {
	case opRef:
		if e.refs == 0 && e.len == 0 && e.crc == 0 {
			e = entry{len: r.len, crc: r.crc}
		}
		e.refs++
	case opRelease:
		if e.refs > 0 {
			e.refs--
		}
	}
	s.entries[r.id] = e
}

// resetJournal atomically replaces the journal with an empty one at
// the current generation.
//
//ckptlint:locked mu
func (s *Store) resetJournal() error { return s.rewriteJournal(nil) }

// rewriteJournal atomically replaces the journal with a canonical file
// at the current generation holding exactly recs. Recovery calls it
// whenever the on-disk journal is not already canonical, so the append
// handle never writes live records after garbage bytes.
//
//ckptlint:locked mu
func (s *Store) rewriteJournal(recs []journalRec) error {
	buf := encodeJournalHeader(s.gen)
	for _, r := range recs {
		buf = appendJournalRec(buf, r)
	}
	tmp, err := os.CreateTemp(s.dir, journalFileName+"-*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("blockstore: journal temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(buf); err != nil {
		return fail(fmt.Errorf("blockstore: writing journal: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("blockstore: syncing journal: %w", err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: closing journal temp: %w", err)
	}
	if err := os.Rename(tmpName, s.journalPath()); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: publishing journal: %w", err)
	}
	return syncDir(s.dir)
}

// sweepOrphans deletes payload files with no entry: the tail of a
// committed GC that crashed mid-delete, or a torn intern whose journal
// record never made it to disk (and whose referencing diff therefore
// never committed either).
//
//ckptlint:locked mu
func (s *Store) sweepOrphans() error {
	root := filepath.Join(s.dir, dataDirName)
	fans, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("blockstore: reading data plane: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(root, fan.Name()))
		if err != nil {
			return fmt.Errorf("blockstore: reading data fan %s: %w", fan.Name(), err)
		}
		for _, f := range files {
			id, ok := parseBlockName(f.Name())
			if !ok {
				continue
			}
			if _, live := s.entries[id]; live {
				continue
			}
			if err := os.Remove(filepath.Join(root, fan.Name(), f.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("blockstore: sweeping orphan block %s: %w", id, err)
			}
		}
	}
	return nil
}

// parseBlockName extracts the block ID from a data-plane file name.
func parseBlockName(name string) (ID, bool) {
	var id ID
	if !strings.HasSuffix(name, ".blk") {
		return id, false
	}
	raw, err := hex.DecodeString(strings.TrimSuffix(name, ".blk"))
	if err != nil || len(raw) != idSize {
		return id, false
	}
	copy(id[:], raw)
	return id, true
}

// Split cuts a payload into the store's chunk-sized slices (the last
// one short). The slices alias p; Intern copies what it stores.
func (s *Store) Split(p []byte) [][]byte {
	if len(p) == 0 {
		return nil
	}
	out := make([][]byte, 0, (len(p)+s.chunk-1)/s.chunk)
	for len(p) > s.chunk {
		out = append(out, p[:s.chunk])
		p = p[s.chunk:]
	}
	return append(out, p)
}

// Intern stores every chunk that is not already present and takes one
// reference on each (a chunk appearing twice in the batch takes two).
// The batch is durable when Intern returns: payload files are fsynced
// before their journal records, and the journal append is one fsynced
// write — so a crash either keeps the whole reference batch or, if it
// hits earlier, leaves only orphaned payload files the next open
// sweeps. On error the journaled partial state keeps the leak-only
// invariant (references may over-count, never under-count).
func (s *Store) Intern(chunks [][]byte) ([]Ref, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.ro {
		return nil, ErrReadOnly
	}
	refs := make([]Ref, 0, len(chunks))
	s.jbuf = s.jbuf[:0]
	for _, p := range chunks {
		id := IDOf(p)
		crc := crc32.Checksum(p, castagnoli)
		if e, ok := s.entries[id]; ok {
			if e.len != uint32(len(p)) || e.crc != crc {
				return nil, fmt.Errorf("%w: id %s holds %d bytes crc %08x, interning %d bytes crc %08x",
					ErrCollision, id, e.len, e.crc, len(p), crc)
			}
			s.dedupHits.Add(1)
			s.savedB.Add(uint64(len(p)))
		} else {
			if err := s.writeBlock(id, p, crc); err != nil {
				return nil, err
			}
			s.entries[id] = entry{len: uint32(len(p)), crc: crc}
			s.interned.Add(1)
		}
		s.jbuf = appendJournalRec(s.jbuf, journalRec{op: opRef, id: id, len: uint32(len(p)), crc: crc})
		e := s.entries[id]
		e.refs++
		s.entries[id] = e
		refs = append(refs, Ref{ID: id, Len: uint32(len(p))})
	}
	if err := s.appendJournalLocked(); err != nil {
		return nil, err
	}
	return refs, nil
}

// Release drops one reference per ref. Call it only after the
// referencing file is durably gone: the journal append makes the
// decrement permanent, and a block whose count reaches zero is
// reclaimed by the next GC. Unknown IDs and zero counts are clamped
// (and reported), never wrapped.
func (s *Store) Release(refs []Ref) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.ro {
		return ErrReadOnly
	}
	s.jbuf = s.jbuf[:0]
	var clampErr error
	for _, r := range refs {
		e, ok := s.entries[r.ID]
		if !ok || e.refs == 0 {
			clampErr = fmt.Errorf("%w: release of %s", ErrUnderflow, r.ID)
			continue
		}
		e.refs--
		s.entries[r.ID] = e
		s.jbuf = appendJournalRec(s.jbuf, journalRec{op: opRelease, id: r.ID})
	}
	if err := s.appendJournalLocked(); err != nil {
		return err
	}
	return clampErr
}

// appendJournalLocked flushes s.jbuf to the journal with one fsync.
//
//ckptlint:locked mu
func (s *Store) appendJournalLocked() error {
	if len(s.jbuf) == 0 {
		return nil
	}
	if _, err := s.journal.Write(s.jbuf); err != nil {
		return fmt.Errorf("blockstore: appending journal: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("blockstore: syncing journal: %w", err)
	}
	return nil
}

// writeBlock persists one payload file: temp, payload+footer, fsync,
// rename, directory fsync.
func (s *Store) writeBlock(id ID, p []byte, crc uint32) error {
	path := s.BlockPath(id)
	fan := filepath.Dir(path)
	if err := os.MkdirAll(fan, 0o755); err != nil {
		return fmt.Errorf("blockstore: creating fan dir: %w", err)
	}
	tmp, err := os.CreateTemp(fan, "blk-*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("blockstore: block temp: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	var footer [blockFooterSize]byte
	putU32(footer[0:], blockMagic)
	putU32(footer[4:], crc)
	if _, err := tmp.Write(p); err != nil {
		return fail(fmt.Errorf("blockstore: writing block %s: %w", id, err))
	}
	if _, err := tmp.Write(footer[:]); err != nil {
		return fail(fmt.Errorf("blockstore: writing block %s footer: %w", id, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("blockstore: syncing block %s: %w", id, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: closing block temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: publishing block %s: %w", id, err)
	}
	return syncDir(fan)
}

// Get reads and verifies one block: it is ReadInto of a single ref,
// with the same checks (see verifyBlock) and the same typed failures
// (ErrCorrupt, ErrNotFound, ErrClosed).
func (s *Store) Get(ref Ref) ([]byte, error) {
	return s.ReadInto(nil, []Ref{ref})
}

// Contains reports whether the store holds a block for id.
func (s *Store) Contains(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[id]
	return ok
}

// Refcount returns the current reference count of id (0 if unknown).
func (s *Store) Refcount(id ID) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[id].refs
}

// GCStats reports one committed GC transaction.
type GCStats struct {
	// Live is how many referenced blocks the new snapshot retains.
	Live int
	// Reclaimed counts deleted zero-ref blocks; ReclaimedBytes their
	// payload bytes.
	Reclaimed      int
	ReclaimedBytes int64
}

// GC folds the journal into a fresh index snapshot holding only
// referenced blocks, commits it by atomic rename, resets the journal
// to the new generation, and deletes the payload files of every
// zero-ref block. Crash-safe at every point: before the rename the old
// snapshot+journal still hold the full state; after it, recovery on
// the next open discards the stale journal and finishes the deletions.
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return GCStats{}, ErrClosed
	}
	if s.ro {
		return GCStats{}, ErrReadOnly
	}
	var st GCStats
	live := make([]ID, 0, len(s.entries))
	var dead []ID
	for id, e := range s.entries {
		if e.refs > 0 {
			live = append(live, id)
		} else {
			dead = append(dead, id)
		}
	}
	sortIDs(live)
	st.Live = len(live)

	if s.hooks != nil && s.hooks.BeforeGCCommit != nil {
		if err := s.hooks.BeforeGCCommit(); err != nil {
			return st, err
		}
	}

	// Commit point: the snapshot rename.
	snap, err := encodeIndex(s.gen+1, live, s.entries)
	if err != nil {
		return st, err
	}
	if err := writeFileAtomic(s.dir, s.indexPath(), snap); err != nil {
		return st, err
	}
	s.gen++

	if s.hooks != nil && s.hooks.AfterGCCommit != nil {
		if err := s.hooks.AfterGCCommit(); err != nil {
			return st, err
		}
	}

	// Reset the journal to the new generation; its old contents are
	// folded into the committed snapshot. Reopen the handle on the new
	// file. A failure anywhere in here is fatal for this handle: the
	// snapshot is already committed, so further appends would land in a
	// journal whose on-disk generation the next open discards wholesale
	// — silently losing every post-GC intern and release. Fail stop
	// instead: the store closes, mutations return ErrClosed, and the
	// next Open recovers cleanly from the committed snapshot.
	if err := s.resetJournal(); err != nil {
		return st, s.failLocked(fmt.Errorf("blockstore: post-GC journal reset: %w", err))
	}
	if err := s.journal.Close(); err != nil {
		s.journal = nil
		return st, s.failLocked(fmt.Errorf("blockstore: closing journal: %w", err))
	}
	s.journal = nil
	j, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return st, s.failLocked(fmt.Errorf("blockstore: reopening journal: %w", err))
	}
	s.journal = j

	// Reclaim the dead blocks. A failure mid-loop leaves orphans the
	// next open sweeps.
	for _, id := range dead {
		e := s.entries[id]
		if err := os.Remove(s.BlockPath(id)); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("blockstore: reclaiming block %s: %w", id, err)
		}
		delete(s.entries, id)
		st.Reclaimed++
		st.ReclaimedBytes += int64(e.len)
	}
	s.gcBlocks.Add(uint64(st.Reclaimed))
	s.gcBytes.Add(uint64(st.ReclaimedBytes))
	return st, nil
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	blocks := len(s.entries)
	var bytes int64
	for _, e := range s.entries {
		bytes += int64(e.len)
	}
	s.mu.Unlock()
	return Stats{
		Blocks:      blocks,
		StoredBytes: bytes,
		Interned:    s.interned.Load(),
		DedupHits:   s.dedupHits.Load(),
		SavedBytes:  s.savedB.Load(),
		GCBlocks:    s.gcBlocks.Load(),
		GCBytes:     s.gcBytes.Load(),
	}
}

// writeFileAtomic writes data to path via temp+fsync+rename+dir-fsync.
func writeFileAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("blockstore: temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(fmt.Errorf("blockstore: writing %s: %w", path, err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("blockstore: syncing %s: %w", path, err))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: closing temp for %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("blockstore: publishing %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss; filesystems that refuse directory fsync report EINVAL or
// ENOTSUP, which is treated as success (same posture as the checkpoint
// store). The raw errno values must be matched — a *PathError wrapping
// syscall.EINVAL never matches os.ErrInvalid.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("blockstore: opening %s for sync: %w", dir, err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("blockstore: syncing %s: %w", dir, err)
	}
	return nil
}

// sortIDs orders ids ascending by their byte serialization, the
// canonical order of index snapshots.
func sortIDs(ids []ID) {
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
