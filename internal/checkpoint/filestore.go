package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
)

// FileStore persists a checkpoint lineage as a directory of diff
// files, one per checkpoint (`ckpt-000000.gckp`, `ckpt-000001.gckp`,
// ...), plus an optional lifecycle manifest (`lineage.manifest`). Files
// are written atomically (temp file + rename) so a crash mid-checkpoint
// never leaves a truncated diff; on load, the sequence is validated by
// the Record's usual geometry and ordering checks.
//
// File names carry absolute checkpoint ids and so do the diffs inside
// them: after a compaction moves the baseline to index k, the retained
// files keep their names and bytes, the manifest records Base=k, and
// Load rebases ids to the 0-based contiguous ids Record.Append
// requires. The restorable range is [Base(), Len()).
//
// Crash recovery: opening a store sweeps temp debris, then deletes any
// diff file below the manifest baseline — the tail of a compaction
// transaction that committed its manifest but crashed before finishing
// the prune (see internal/lifecycle).
//
// A FileStore is safe for concurrent use by multiple goroutines within
// one process: every method holds an internal mutex, so two goroutines
// racing to append the same next id yield exactly one winner (the loser
// gets a contiguity error instead of silently overwriting the winner's
// file). Two FileStores opened on the same directory — or two
// processes — are NOT coordinated; give each lineage a single owner,
// as the ckptd server does.
//
// This is the bottom of the paper's storage hierarchy (§2.3): what the
// asynchronous runtime eventually flushes to the parallel file system.
type FileStore struct {
	dir string

	// man, n, and size are protected by mu. They are also touched by
	// the *Locked helpers (callers hold mu) and by NewFileStore before
	// the store is shared, which is why they carry no ckptlint
	// guardedby directive — that check requires the Lock call to be in
	// the same function body.
	mu  sync.Mutex
	man Manifest
	// n is one past the highest contiguously stored checkpoint index,
	// starting from the baseline; size is the cumulative on-disk byte
	// count of diffs [man.Base, n). Both are computed once on open and
	// maintained incrementally by Append/ReplaceDiff, so Len and
	// TotalBytes are O(1) instead of a directory scan per call.
	n    int
	size int64

	// hooks intercepts I/O for fault injection; nil in production.
	// Guarded by mu like the rest of the mutable state.
	hooks *IOHooks

	// Write-behind intake state (see intake.go), guarded by mu: wal is
	// the open intake log (lazily created by the first AppendBatch),
	// tail the committed-but-unmaterialized containers for checkpoints
	// [n-len(tail), n), tailBytes their cumulative size.
	wal       *os.File
	tail      []tailEntry
	tailBytes int64

	// blocks, when non-nil, is the shared content-addressed block store
	// the data sections of new diffs are interned into: Append writes a
	// block-mapped container (see blockfile.go) instead of embedding
	// payload bytes, so identical chunks across every lineage sharing
	// the store exist on disk exactly once. nil means self-contained
	// (legacy) files, which remain readable either way. Set once before
	// the store is shared, immutable afterwards.
	blocks *blockstore.Store
	// ownBlocks records whether Close should close blocks: true when
	// NewFileStore auto-attached a sibling store, false when the caller
	// passed a shared one to NewFileStoreWith.
	ownBlocks bool
}

const (
	diffFileExt = ".gckp"
	tmpPrefix   = "ckpt-"
	tmpSuffix   = ".tmp"

	// QuarantineSuffix is appended to a corrupt diff file's name when
	// Scrub moves it aside. Quarantined files no longer parse as diff
	// names, so every store scan skips them; they are kept (not
	// deleted) as forensic evidence until repaired or manually removed.
	QuarantineSuffix = ".quarantine"
)

// SetIOHooks installs fault-injection hooks. Pass nil to remove them.
// Test-only seam; production stores never call it.
func (fs *FileStore) SetIOHooks(h *IOHooks) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.hooks = h
}

// NewFileStore creates (or reopens) a lineage directory. Orphaned
// temporary files from a previous crash (created but never renamed
// into place) are swept on open, a manifest is loaded if present, and
// an interrupted compaction prune is completed (files below the
// committed baseline are deleted).
//
// If a sibling block store directory exists (<parent>/_blocks, the
// layout a ckptd root uses), it is opened and attached automatically,
// so single-lineage tools can read block-mapped diffs out of a server
// root without extra wiring; Close then closes the attached store. A
// plain directory with no sibling stays fully self-contained.
//
// When the sibling store's writable lock is held — the lineage sits
// inside a LIVE ckptd root — the attach falls back to read-only:
// loads still resolve block-mapped diffs, while any write that would
// intern into the shared store fails with blockstore.ErrReadOnly
// instead of racing the owner's recovery sweep and GC.
func NewFileStore(dir string) (*FileStore, error) {
	var bs *blockstore.Store
	sibling := filepath.Join(filepath.Dir(dir), blockstore.DirName)
	if st, err := os.Stat(sibling); err == nil && st.IsDir() {
		b, err := attachSiblingStore(sibling)
		if err != nil {
			return nil, err
		}
		bs = b
	}
	fs, err := newFileStore(dir, bs, bs != nil)
	if err != nil && bs != nil {
		bs.Close()
	}
	return fs, err
}

// attachSiblingStore opens a sibling block store for auto-attach:
// writable when this process can become the owner, read-only when a
// live owner already holds the lock. Ownership of the returned store
// passes to the caller.
func attachSiblingStore(sibling string) (*blockstore.Store, error) {
	b, err := blockstore.Open(sibling, blockstore.Options{})
	if !errors.Is(err, blockstore.ErrBusy) {
		return b, err
	}
	return blockstore.Open(sibling, blockstore.Options{ReadOnly: true})
}

// NewFileStoreWith creates (or reopens) a lineage directory whose new
// diffs intern their data sections into the shared block store bs —
// the multi-lineage configuration of the ckptd server, where one store
// de-duplicates across every lineage and tenant. The caller retains
// ownership of bs; closing the FileStore does not close it. bs may be
// nil, which is exactly NewFileStore minus the sibling auto-attach.
func NewFileStoreWith(dir string, bs *blockstore.Store) (*FileStore, error) {
	return newFileStore(dir, bs, false)
}

func newFileStore(dir string, bs *blockstore.Store, own bool) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating store %s: %w", dir, err)
	}
	fs := &FileStore{dir: dir, blocks: bs, ownBlocks: own}
	man, err := ReadManifestFile(fs.manifestPath())
	switch {
	case err == nil:
		fs.man = *man
	case os.IsNotExist(err):
		// No manifest: a legacy / never-compacted lineage, baseline 0.
	default:
		return nil, err
	}
	if err := fs.sweepTemp(); err != nil {
		return nil, err
	}
	// The intake log replay needs the file-level length, so it runs
	// between the two rescans: the first establishes where the files
	// end, the replay materializes the committed tail past that point,
	// and the final rescan folds the recovered files into the cache.
	if err := fs.rescanLocked(); err != nil {
		return nil, err
	}
	if err := fs.replayIntakeLocked(); err != nil {
		return nil, err
	}
	if _, _, err := fs.pruneBelowBaseLocked(); err != nil {
		return nil, err
	}
	if err := fs.rescanLocked(); err != nil {
		return nil, err
	}
	return fs, nil
}

// Close flushes the write-behind intake tail and releases the
// auto-attached block store, if any. A FileStore opened with
// NewFileStoreWith leaves the shared store to its owner. Idempotent.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	err := fs.closeIntakeLocked()
	if fs.ownBlocks && fs.blocks != nil {
		fs.ownBlocks = false
		if berr := fs.blocks.Close(); err == nil {
			err = berr
		}
	}
	return err
}

// BlockStats returns the counters of the attached block store, or a
// zero snapshot when the lineage is self-contained.
func (fs *FileStore) BlockStats() blockstore.Stats {
	if fs.blocks == nil {
		return blockstore.Stats{}
	}
	return fs.blocks.Stats()
}

// sweepTemp removes stale ckpt-*.tmp files left by a crash between
// CreateTemp and Rename.
func (fs *FileStore) sweepTemp() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: sweeping store %s: %w", fs.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, tmpPrefix) || !strings.HasSuffix(name, tmpSuffix) {
			continue
		}
		if err := os.Remove(filepath.Join(fs.dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: removing stale temp file %s: %w", name, err)
		}
	}
	return nil
}

// Dir returns the store directory.
func (fs *FileStore) Dir() string { return fs.dir }

// diffPath returns the canonical file name of checkpoint ck.
func (fs *FileStore) diffPath(ck int) string {
	return filepath.Join(fs.dir, fmt.Sprintf("ckpt-%06d%s", ck, diffFileExt))
}

// manifestPath returns the manifest file name.
func (fs *FileStore) manifestPath() string {
	return filepath.Join(fs.dir, ManifestFileName)
}

// parseDiffName extracts the checkpoint index from a diff file name.
func parseDiffName(name string) (int, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, diffFileExt) {
		return 0, false
	}
	var ck int
	if _, err := fmt.Sscanf(name, "ckpt-%06d", &ck); err != nil {
		return 0, false
	}
	return ck, true
}

// rescanLocked recomputes the cached length and byte count from the
// directory: the contiguous run of diff files starting at the
// baseline. Stray files beyond a gap are ignored, as before.
func (fs *FileStore) rescanLocked() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: reading store: %w", err)
	}
	sizes := map[int]int64{}
	for _, e := range entries {
		ck, ok := parseDiffName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("checkpoint: stat %s: %w", e.Name(), err)
		}
		sizes[ck] = info.Size()
	}
	fs.n = int(fs.man.Base)
	fs.size = 0
	for {
		sz, ok := sizes[fs.n]
		if !ok {
			break
		}
		fs.size += sz
		fs.n++
	}
	return nil
}

// Base returns the baseline index: the first restorable checkpoint.
func (fs *FileStore) Base() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int(fs.man.Base)
}

// Manifest returns a copy of the current lifecycle manifest.
func (fs *FileStore) Manifest() Manifest {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.man.Clone()
}

// Len returns one past the highest stored checkpoint index. For a
// never-compacted lineage this is the diff count; after compaction the
// stored diffs span [Base(), Len()). The error return is kept for
// interface stability; the cached value cannot fail.
func (fs *FileStore) Len() (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.n, nil
}

// Append writes diff d as the next checkpoint file. The diff's CkptID
// must equal the current length (contiguity), and its shifted
// duplicates must not reference a checkpoint below the baseline —
// after a compaction those bytes are gone, so a stale pusher that
// still holds pre-compaction history gets a clean error instead of
// storing an unrestorable diff. Concurrent appends of the same id are
// serialized and exactly one wins.
func (fs *FileStore) Append(d *Diff) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return err
	}
	if int(d.CkptID) != fs.n {
		return fmt.Errorf("checkpoint: store has diffs [%d,%d), cannot append id %d",
			fs.man.Base, fs.n, d.CkptID)
	}
	for _, s := range d.ShiftDupl {
		if s.SrcCkpt < fs.man.Base {
			return fmt.Errorf("checkpoint: diff %d references checkpoint %d, pruned below baseline %d",
				d.CkptID, s.SrcCkpt, fs.man.Base)
		}
	}
	sz, err := fs.writeDiffLocked(fs.n, d)
	if err != nil {
		return err
	}
	fs.n++
	fs.size += sz
	return nil
}

// AppendBatch appends a contiguous run of diffs with one durability
// point for the whole batch instead of one per diff — the group
// commit behind the server's v4 stream path. The run is validated up
// front (contiguity, baseline references), every data section is
// interned in a single block-store call (one journal fsync covers the
// batch), and the encoded containers are committed to the write-behind
// intake log with one fsynced append (see intake.go). Per-checkpoint
// files materialize off the commit path.
//
// The batch commits atomically: on success every diff is durable and
// appended reports len(ds); on error nothing was committed and any
// just-taken block references are released again. A non-nil error
// alongside appended == len(ds) means the batch IS committed but a
// deferred materialization failed — the store needs attention, yet
// the data is safe in the log and recovers on reopen.
func (fs *FileStore) AppendBatch(ds []*Diff) (appended int, err error) {
	if len(ds) == 0 {
		return 0, nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i, d := range ds {
		if int(d.CkptID) != fs.n+i {
			return 0, fmt.Errorf("checkpoint: store has diffs [%d,%d), cannot append id %d at batch offset %d",
				fs.man.Base, fs.n, d.CkptID, i)
		}
		for _, s := range d.ShiftDupl {
			if s.SrcCkpt < fs.man.Base {
				return 0, fmt.Errorf("checkpoint: diff %d references checkpoint %d, pruned below baseline %d",
					d.CkptID, s.SrcCkpt, fs.man.Base)
			}
		}
	}

	// Intern every data section of the batch in one call: block
	// payload files and ONE journal append cover all of them, and the
	// ordering contract holds batch-wide — blocks and their journal
	// records are durable before the log record that references them.
	var refs []blockstore.Ref
	counts := make([]int, len(ds))
	if fs.blocks != nil {
		var chunks [][]byte
		for i, d := range ds {
			cs := fs.blocks.Split(d.Data)
			counts[i] = len(cs)
			chunks = append(chunks, cs...)
		}
		refs, err = fs.blocks.Intern(chunks)
		if err != nil {
			return 0, fmt.Errorf("checkpoint: interning batch: %w", err)
		}
	}

	// Encode the containers, then commit them all with one log append.
	cks := make([]int, len(ds))
	containers := make([][]byte, len(ds))
	off := 0
	for i, d := range ds {
		rs := refs[off : off+counts[i]]
		off += counts[i]
		cks[i] = int(d.CkptID)
		if fs.blocks == nil {
			var buf bytes.Buffer
			if err := d.Encode(&buf); err != nil {
				return 0, err
			}
			containers[i] = buf.Bytes()
		} else {
			var prefix bytes.Buffer
			if err := d.encodePrefix(&prefix); err != nil {
				fs.blocks.Release(refs)
				return 0, err
			}
			containers[i], err = encodeBlockDiff(prefix.Bytes(), rs, uint64(len(d.Data)))
			if err != nil {
				fs.blocks.Release(refs)
				return 0, err
			}
		}
	}
	if err := fs.appendIntakeLocked(cks, containers); err != nil {
		if fs.blocks != nil {
			fs.blocks.Release(refs)
		}
		return 0, err
	}
	for i := range ds {
		fs.tail = append(fs.tail, tailEntry{ck: cks[i], container: containers[i]})
		fs.tailBytes += int64(len(containers[i]))
		fs.n++
		fs.size += int64(len(containers[i])) + FooterSize
	}
	appended = len(ds)

	if len(fs.tail) >= tailMaxCount || fs.tailBytes >= tailMaxBytes {
		if merr := fs.ensureMaterializedLocked(); merr != nil {
			return appended, merr
		}
	}
	return appended, nil
}

// writeDiffLocked persists d (plus its integrity footer) as the file
// of checkpoint ck and returns the on-disk byte count. With a block
// store attached the file is a block-mapped container whose data
// section was interned first; otherwise it is the self-contained
// canonical encoding.
func (fs *FileStore) writeDiffLocked(ck int, d *Diff) (int64, error) {
	if fs.blocks == nil {
		return fs.writeFileLocked(ck, d.Encode)
	}
	return fs.writeBlockDiffLocked(ck, d)
}

// writeBlockDiffLocked interns d's data section into the shared block
// store, then writes the container file. The ordering is the crash
// contract of the store: block payloads and their journal records are
// durable BEFORE the container that references them is renamed into
// place, so a crash at any instant leaves either a fully referenced
// diff or unreferenced debris (leaked refcounts at worst) — never a
// committed diff pointing at missing blocks. On a non-crash write
// failure the just-taken references are released again.
func (fs *FileStore) writeBlockDiffLocked(ck int, d *Diff) (int64, error) {
	var prefix bytes.Buffer
	if err := d.encodePrefix(&prefix); err != nil {
		return 0, err
	}
	refs, err := fs.blocks.Intern(fs.blocks.Split(d.Data))
	if err != nil {
		return 0, fmt.Errorf("checkpoint: interning diff %d data: %w", ck, err)
	}
	container, err := encodeBlockDiff(prefix.Bytes(), refs, uint64(len(d.Data)))
	if err != nil {
		fs.blocks.Release(refs)
		return 0, err
	}
	sz, err := fs.writeFileLocked(ck, func(w io.Writer) error {
		if _, werr := w.Write(container); werr != nil {
			return werr
		}
		return nil
	})
	if err != nil && !errors.Is(err, ErrSimulatedCrash) {
		// The container never made it to disk; drop its references. A
		// simulated crash keeps them, exactly as a dying process would.
		fs.blocks.Release(refs)
	}
	return sz, err
}

// writeFileLocked streams encode (plus the integrity footer) into the
// file of checkpoint ck and returns the on-disk byte count. The commit
// is crash-durable, not just atomic: the temp file is fsynced before
// the rename and the parent directory after it, so once this returns
// the file survives power loss — a rename alone only orders the file
// against other renames, not against the disk.
//
// A hook error wrapping ErrSimulatedCrash is propagated without
// cleanup: the temp file (and, after the rename, the published file)
// stays exactly as a dying process would leave it, so crash tests can
// reopen the directory and exercise recovery on authentic debris.
func (fs *FileStore) writeFileLocked(ck int, encode func(io.Writer) error) (int64, error) {
	return fs.writeFile(ck, encode, true)
}

// writeFile is writeFileLocked with the parent-directory sync made
// optional: AppendBatch defers it to one call per batch. Skipping it
// does NOT weaken per-file atomicity (temp file is still fsynced
// before the rename); it only defers the point at which the rename
// itself is guaranteed to survive power loss.
func (fs *FileStore) writeFile(ck int, encode func(io.Writer) error, syncParent bool) (int64, error) {
	tmp, err := os.CreateTemp(fs.dir, tmpPrefix+"*"+tmpSuffix)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		if !errors.Is(err, ErrSimulatedCrash) {
			os.Remove(tmpName)
		}
		return 0, err
	}
	var w io.Writer = tmp
	if fs.hooks != nil && fs.hooks.WrapDiffWrite != nil {
		w = fs.hooks.WrapDiffWrite(ck, w)
	}
	cw := &crcWriter{w: w}
	if err := encode(cw); err != nil {
		return fail(err)
	}
	footer := footerFor(cw.crc)
	if _, err := w.Write(footer[:]); err != nil {
		return fail(fmt.Errorf("checkpoint: writing diff %d footer: %w", ck, err))
	}
	if fs.hooks != nil && fs.hooks.BeforeSync != nil {
		if err := fs.hooks.BeforeSync(tmpName); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("checkpoint: syncing diff %d: %w", ck, err))
	}
	if err := tmp.Close(); err != nil {
		if !errors.Is(err, ErrSimulatedCrash) {
			os.Remove(tmpName)
		}
		return 0, fmt.Errorf("checkpoint: closing temp file: %w", err)
	}
	final := fs.diffPath(ck)
	if fs.hooks != nil && fs.hooks.BeforeRename != nil {
		if err := fs.hooks.BeforeRename(tmpName, final); err != nil {
			if !errors.Is(err, ErrSimulatedCrash) {
				os.Remove(tmpName)
			}
			return 0, err
		}
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("checkpoint: publishing diff %d: %w", ck, err)
	}
	if fs.hooks != nil && fs.hooks.AfterRename != nil {
		if err := fs.hooks.AfterRename(final); err != nil {
			return 0, err
		}
	}
	if syncParent {
		if err := syncDir(fs.dir); err != nil {
			return 0, err
		}
	}
	return cw.n + FooterSize, nil
}

// ReplaceDiff atomically overwrites the file of stored checkpoint ck
// with d (temp file + rename). The compaction transaction uses it to
// install the materialized baseline and to rewrite suffix diffs; every
// replacement must be state-equivalent, which internal/lifecycle
// verifies before writing anything. d must carry the absolute id ck.
func (fs *FileStore) ReplaceDiff(ck int, d *Diff) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return err
	}
	if ck < int(fs.man.Base) || ck >= fs.n {
		return fmt.Errorf("checkpoint: replace %d outside stored range [%d,%d)", ck, fs.man.Base, fs.n)
	}
	if int(d.CkptID) != ck {
		return fmt.Errorf("checkpoint: replacement for %d carries id %d", ck, d.CkptID)
	}
	old, err := os.Stat(fs.diffPath(ck))
	if err != nil {
		return fmt.Errorf("checkpoint: stat diff %d: %w", ck, err)
	}
	// Capture the old file's block references before the rename
	// destroys it; release them only after the replacement is durable.
	// This is also the transparent-intern path: replacing a legacy
	// self-contained file (no refs to release) writes a block-mapped
	// one, migrating the lineage into the shared store as compaction
	// naturally rewrites it.
	oldRefs := fs.blockRefsAt(ck)
	sz, err := fs.writeDiffLocked(ck, d)
	if err != nil {
		return err
	}
	fs.size += sz - old.Size()
	return fs.releaseRefs(oldRefs)
}

// CommitManifest atomically publishes m as the lineage manifest — the
// commit point of a compaction transaction. The baseline may only move
// forward, must keep at least one stored diff, and every pin must lie
// in the retained range. Files below the new baseline are NOT deleted
// here; call PruneBelowBase afterwards (recovery on reopen completes
// the prune if the process dies in between).
func (fs *FileStore) CommitManifest(m Manifest) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	// Drain the write-behind tail first: the rescan below recomputes
	// fs.n from FILES, which would silently forget committed diffs
	// still waiting in the intake log.
	if err := fs.ensureMaterializedLocked(); err != nil {
		return err
	}
	if m.Base < fs.man.Base {
		return fmt.Errorf("checkpoint: manifest baseline %d behind committed %d", m.Base, fs.man.Base)
	}
	if int(m.Base) > fs.n || (fs.n > int(fs.man.Base) && int(m.Base) >= fs.n) {
		return fmt.Errorf("checkpoint: manifest baseline %d has no stored diff (range [%d,%d))",
			m.Base, fs.man.Base, fs.n)
	}
	if m.Generation <= fs.man.Generation {
		return fmt.Errorf("checkpoint: manifest generation %d does not advance %d",
			m.Generation, fs.man.Generation)
	}
	for _, p := range m.Pins {
		if int(p) >= fs.n {
			return fmt.Errorf("checkpoint: pin %d beyond stored range [%d,%d)", p, m.Base, fs.n)
		}
	}
	if err := WriteManifestFile(fs.manifestPath(), &m); err != nil {
		return err
	}
	fs.man = m.Clone()
	// The cached byte count covers [Base, n); rescan under the new
	// baseline (files below it still exist until PruneBelowBase runs).
	return fs.rescanLocked()
}

// PruneBelowBase deletes diff files below the committed baseline and
// returns how many files and bytes it removed. It is idempotent: the
// deletions are also performed on reopen, so a crash anywhere in the
// loop loses nothing but disk space until the next open.
func (fs *FileStore) PruneBelowBase() (int, int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return 0, 0, err
	}
	return fs.pruneBelowBaseLocked()
}

func (fs *FileStore) pruneBelowBaseLocked() (int, int64, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: reading store: %w", err)
	}
	removed, freed := 0, int64(0)
	for _, e := range entries {
		ck, ok := parseDiffName(e.Name())
		if !ok || ck >= int(fs.man.Base) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return removed, freed, fmt.Errorf("checkpoint: stat %s: %w", e.Name(), err)
		}
		// Retention becomes a refcount decrement, not a payload delete:
		// capture the file's references, remove the file, then release.
		// The shared blocks survive as long as ANY lineage still points
		// at them; the next blockstore GC reclaims the rest. A crash
		// between remove and release leaks counts, never corrupts them.
		refs := fs.blockRefsAt(ck)
		if err := os.Remove(filepath.Join(fs.dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return removed, freed, fmt.Errorf("checkpoint: pruning %s: %w", e.Name(), err)
		}
		if err := fs.releaseRefs(refs); err != nil {
			return removed, freed, err
		}
		removed++
		freed += info.Size()
	}
	return removed, freed, nil
}

// DiffBytes returns the encoded bytes of stored checkpoint ck with the
// integrity footer verified and stripped — the path a network server
// uses to serve a pull without decoding. A footer mismatch surfaces as
// a *CorruptError (errors.Is ErrCorrupt); a legacy footer-less file is
// returned as-is, unverified.
func (fs *FileStore) DiffBytes(ck int) ([]byte, error) {
	fs.mu.Lock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	base, length, hooks := int(fs.man.Base), fs.n, fs.hooks
	fs.mu.Unlock()
	if ck < base || ck >= length {
		return nil, fmt.Errorf("checkpoint: diff %d out of range [%d,%d)", ck, base, length)
	}
	encoded, _, err := fs.readVerified(ck, hooks)
	return encoded, err
}

// errNoBlockStore reports a block-mapped diff file in a store opened
// without a block store — a configuration problem (the `_blocks`
// sibling was moved or the wrong constructor was used), not data
// corruption, so it is deliberately NOT a *CorruptError: a scrub must
// abort rather than quarantine every file it cannot resolve.
var errNoBlockStore = errors.New("checkpoint: block-mapped diff but no block store attached")

// readVerified reads checkpoint ck's file, applies the read-time fault
// hook, and verifies+strips the integrity footer. A block-mapped
// container is reassembled into the canonical diff encoding, each
// payload block verified by the block store (CRC plus digest); callers
// never see container bytes. verified is false only for legacy
// footer-less files.
func (fs *FileStore) readVerified(ck int, hooks *IOHooks) (encoded []byte, verified bool, err error) {
	path := fs.diffPath(ck)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("checkpoint: reading diff %d: %w", ck, err)
	}
	if hooks != nil && hooks.OnDiffRead != nil {
		raw = hooks.OnDiffRead(ck, raw)
	}
	encoded, verified, err = SplitFooter(raw)
	if err != nil {
		return nil, false, &CorruptError{Path: path, Ckpt: ck, Err: err}
	}
	if IsBlockMapped(encoded) {
		encoded, err = fs.reassemble(encoded)
		if err != nil {
			if errors.Is(err, errNoBlockStore) {
				return nil, false, err
			}
			return nil, false, &CorruptError{Path: path, Ckpt: ck, Err: err}
		}
		verified = true
	}
	return encoded, verified, nil
}

// reassemble expands a block-mapped container into the canonical diff
// encoding: prefix verbatim, then every referenced block read in one
// batch from the shared store. Both rot in the container (caught by
// its footer before this runs) and rot in a block (caught by the
// store's per-block verification here) surface as typed corruption.
func (fs *FileStore) reassemble(container []byte) ([]byte, error) {
	prefix, refs, dataLen, err := decodeBlockDiff(container)
	if err != nil {
		return nil, err
	}
	if fs.blocks == nil {
		return nil, errNoBlockStore
	}
	out := make([]byte, len(prefix), uint64(len(prefix))+dataLen)
	copy(out, prefix)
	return fs.blocks.ReadInto(out, refs)
}

// blockRefsAt returns the block references held by checkpoint ck's
// file, nil for self-contained or unreadable files. It is the
// release-side bookkeeping read: callers that are about to delete or
// overwrite the file capture its references first and release them
// only after the file is durably gone (crash in between leaks a
// count; it never underflows one).
func (fs *FileStore) blockRefsAt(ck int) []blockstore.Ref {
	raw, err := os.ReadFile(fs.diffPath(ck))
	if err != nil {
		return nil
	}
	encoded, _, err := SplitFooter(raw)
	if err != nil || !IsBlockMapped(encoded) {
		return nil
	}
	_, refs, _, err := decodeBlockDiff(encoded)
	if err != nil {
		return nil
	}
	return refs
}

// releaseRefs drops refs from the attached block store, tolerating
// underflow (a foreign or already-released reference) as the
// documented soft failure of best-effort cleanup.
func (fs *FileStore) releaseRefs(refs []blockstore.Ref) error {
	if fs.blocks == nil || len(refs) == 0 {
		return nil
	}
	if err := fs.blocks.Release(refs); err != nil && !errors.Is(err, blockstore.ErrUnderflow) {
		return err
	}
	return nil
}

// decodeVerified decodes the verified bytes of checkpoint ck and
// cross-checks the embedded id against the file name. Structural
// decode failures and id mismatches are *CorruptError like checksum
// failures: all three mean the file cannot be restored. verified is
// false for legacy footer-less files.
func (fs *FileStore) decodeVerified(ck int, hooks *IOHooks) (*Diff, bool, error) {
	encoded, verified, err := fs.readVerified(ck, hooks)
	if err != nil {
		return nil, false, err
	}
	d, err := Decode(bytes.NewReader(encoded))
	if err != nil {
		return nil, verified, &CorruptError{Path: fs.diffPath(ck), Ckpt: ck, Err: err}
	}
	if int(d.CkptID) != ck {
		return nil, verified, &CorruptError{Path: fs.diffPath(ck), Ckpt: ck,
			Err: fmt.Errorf("file holds diff id %d", d.CkptID)}
	}
	return d, verified, nil
}

// TotalBytes returns the cumulative on-disk size of the stored diffs.
func (fs *FileStore) TotalBytes() (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.size, nil
}

// Load reads the stored lineage [Base, Len) into a restorable Record.
// On-disk diffs carry absolute ids; Load rebases them to the 0-based
// contiguous ids the Record requires, so Record index i is absolute
// checkpoint Base()+i.
func (fs *FileStore) Load() (*Record, error) {
	fs.mu.Lock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	base, length, hooks := int(fs.man.Base), fs.n, fs.hooks
	fs.mu.Unlock()
	if length == base {
		return nil, fmt.Errorf("checkpoint: store %s is empty", fs.dir)
	}
	rec := NewRecord()
	for ck := base; ck < length; ck++ {
		d, _, err := fs.decodeVerified(ck, hooks)
		if err != nil {
			return nil, err
		}
		if err := d.Rebase(-int64(base)); err != nil {
			return nil, fmt.Errorf("checkpoint: diff %d: %w", ck, err)
		}
		if err := rec.Append(d); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// WriteRecord persists an in-memory record into an empty store.
func (fs *FileStore) WriteRecord(rec *Record) error {
	n, err := fs.Len()
	if err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("checkpoint: store %s already holds diffs up to %d", fs.dir, n)
	}
	for i := 0; i < rec.Len(); i++ {
		if err := fs.Append(rec.Diff(i)); err != nil {
			return err
		}
	}
	return nil
}

// ScrubReport summarizes a Scrub pass.
type ScrubReport struct {
	// Checked is how many stored diffs were read and verified.
	Checked int
	// Corrupt lists, in ascending order, the absolute checkpoint ids
	// whose files failed verification and were quarantined.
	Corrupt []int
	// Errors holds the *CorruptError for each entry of Corrupt.
	Errors []error
	// Unverified lists legacy footer-less diffs that decoded cleanly
	// but carry no checksum to verify.
	Unverified []int
}

// OK reports whether the scrub found no corruption.
func (r *ScrubReport) OK() bool { return len(r.Corrupt) == 0 }

// Scrub reads and verifies every stored diff: footer checksum,
// structural decode, and id-vs-filename agreement. Each corrupt file
// is quarantined — renamed to <name>.quarantine, which removes it from
// the store's namespace while preserving the bytes for forensics — and
// the cached range shrinks to the contiguous prefix before the first
// hole, exactly as if the file had never been written. Use
// ReinstallDiff (e.g. with bytes refetched from a ckptd peer, see the
// client's Repair) to fill the hole and reconnect the suffix.
//
// Scrub holds the store lock for the whole pass; concurrent appends
// and pulls wait rather than racing a quarantine rename.
func (fs *FileStore) Scrub() (*ScrubReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return nil, err
	}
	rep := &ScrubReport{}
	for ck := int(fs.man.Base); ck < fs.n; ck++ {
		rep.Checked++
		_, verified, err := fs.decodeVerified(ck, fs.hooks)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				return rep, err // I/O failure, not corruption: abort the pass
			}
			path := fs.diffPath(ck)
			if err := os.Rename(path, path+QuarantineSuffix); err != nil {
				return rep, fmt.Errorf("checkpoint: quarantining diff %d: %w", ck, err)
			}
			rep.Corrupt = append(rep.Corrupt, ck)
			rep.Errors = append(rep.Errors, ce)
			continue
		}
		if !verified {
			rep.Unverified = append(rep.Unverified, ck)
		}
	}
	if len(rep.Corrupt) > 0 {
		if err := fs.rescanLocked(); err != nil {
			return rep, err
		}
	}
	sort.Ints(rep.Corrupt)
	return rep, nil
}

// ReinstallDiff writes d at its absolute checkpoint id, filling a hole
// left by Scrub quarantine (or overwriting an existing file with
// equivalent bytes). The id must lie at or above the baseline; after
// the write the store rescans, so a suffix stranded beyond the hole is
// reconnected and Len() grows back accordingly.
func (fs *FileStore) ReinstallDiff(d *Diff) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return err
	}
	ck := int(d.CkptID)
	if ck < int(fs.man.Base) {
		return fmt.Errorf("checkpoint: reinstall %d below baseline %d", ck, fs.man.Base)
	}
	oldRefs := fs.blockRefsAt(ck)
	if _, err := fs.writeDiffLocked(ck, d); err != nil {
		return err
	}
	if err := fs.releaseRefs(oldRefs); err != nil {
		return err
	}
	return fs.rescanLocked()
}

// InstallSpan installs a replicated span pulled from a peer: diffs
// carry contiguous absolute ids [base, base+len(diffs)) and become
// the store's authoritative content, adopting base as the committed
// baseline when it lies beyond the current one. This is the resync
// commit of a follower whose primary folded its lineage — unlike
// CommitManifest (which moves the baseline of diffs already stored),
// InstallSpan may move the baseline PAST the mirror's current length,
// because the span's files are written first and the manifest commit
// only then publishes the new base over them.
//
// The transaction reuses the compaction crash contract: span files
// (durable, fsynced individually), then the atomic manifest rename,
// then the prune of files below the new baseline. A crash at any
// point leaves either the old committed state plus ignorable stranded
// files, or the new state with the prune completed on reopen.
func (fs *FileStore) InstallSpan(base int, diffs []*Diff) error {
	if len(diffs) == 0 {
		return fmt.Errorf("checkpoint: install span at %d with no diffs", base)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		return err
	}
	if base < int(fs.man.Base) {
		return fmt.Errorf("checkpoint: span baseline %d behind committed %d", base, fs.man.Base)
	}
	for i, d := range diffs {
		if int(d.CkptID) != base+i {
			return fmt.Errorf("checkpoint: span diff at offset %d carries id %d, want %d",
				i, d.CkptID, base+i)
		}
		for _, s := range d.ShiftDupl {
			if int(s.SrcCkpt) < base {
				return fmt.Errorf("checkpoint: span diff %d references checkpoint %d below its baseline %d",
					d.CkptID, s.SrcCkpt, base)
			}
		}
	}
	for i, d := range diffs {
		// An overwritten file's block references are captured before
		// the rename destroys it and released only once the
		// replacement is durable, as in ReplaceDiff.
		oldRefs := fs.blockRefsAt(base + i)
		if _, err := fs.writeDiffLocked(base+i, d); err != nil {
			return err
		}
		if err := fs.releaseRefs(oldRefs); err != nil {
			return err
		}
	}
	if base > int(fs.man.Base) {
		m := fs.man.Clone()
		m.Base = uint32(base)
		m.Generation++
		kept := m.Pins[:0]
		for _, p := range m.Pins {
			if int(p) >= base {
				kept = append(kept, p)
			}
		}
		m.Pins = kept
		if err := WriteManifestFile(fs.manifestPath(), &m); err != nil {
			return err
		}
		fs.man = m
	}
	if err := fs.rescanLocked(); err != nil {
		return err
	}
	_, _, err := fs.pruneBelowBaseLocked()
	return err
}

// Quarantined lists the quarantine file names currently in the store
// directory, in lexical order.
func (fs *FileStore) Quarantined() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading store: %w", err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), QuarantineSuffix) {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// QuarantinedIDs returns the checkpoint ids of the quarantine files in
// the store directory, ascending — the holes a repair pass (possibly
// in a later process than the scrub that quarantined them) still needs
// to fill.
func (fs *FileStore) QuarantinedIDs() ([]int, error) {
	names, err := fs.Quarantined()
	if err != nil {
		return nil, err
	}
	var out []int
	for _, name := range names {
		if ck, ok := parseDiffName(strings.TrimSuffix(name, QuarantineSuffix)); ok {
			out = append(out, ck)
		}
	}
	sort.Ints(out)
	return out, nil
}

// ClearQuarantine removes checkpoint ck's quarantine file, if any —
// called once a repair has reinstalled verified bytes at ck, so the
// forensic copy of the rotten file stops masquerading as an open hole.
func (fs *FileStore) ClearQuarantine(ck int) error {
	err := os.Remove(fs.diffPath(ck) + QuarantineSuffix)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: clearing quarantine of diff %d: %w", ck, err)
	}
	return nil
}

// Files lists the stored diff file names in checkpoint order. Callers
// read the files, so the write-behind tail is drained first.
func (fs *FileStore) Files() ([]string, error) {
	fs.mu.Lock()
	if err := fs.ensureMaterializedLocked(); err != nil {
		fs.mu.Unlock()
		return nil, err
	}
	base, length := int(fs.man.Base), fs.n
	fs.mu.Unlock()
	out := make([]string, 0, length-base)
	for ck := base; ck < length; ck++ {
		out = append(out, fs.diffPath(ck))
	}
	return out, nil
}
