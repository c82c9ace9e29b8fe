package dedup

import (
	"bytes"
	"fmt"
	"slices"

	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/device"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/merkle"
	"github.com/gpuckpt/gpuckpt/internal/murmur3"
	"github.com/gpuckpt/gpuckpt/internal/parallel"
)

// emittedRegion is one region root saved by the labeling sweep.
type emittedRegion struct {
	node  uint32
	label Label
	src   hashmap.Entry // valid for LabelShiftDupl
}

// orderRegions orders regions by the first chunk they cover. Each
// region's leaf start is computed once and packed with its index into
// one integer key, start<<32 | i; regions are disjoint, so starts are
// distinct and sorting the keys orders the regions. It leaves the
// sorted keys in d.orderKeys and returns the number of first-occurrence
// and shifted-duplicate regions.
//
//ckptlint:noalloc
func (d *Deduplicator) orderRegions(regions []emittedRegion) (nFirst, nShift int) {
	keys := grow(d.orderKeys, len(regions))
	for i := range regions {
		lo, _ := d.tree.LeafRange(int(regions[i].node))
		keys[i] = uint64(lo)<<32 | uint64(i)
		if regions[i].label == LabelFirstOcur {
			nFirst++
		}
	}
	slices.Sort(keys)
	d.orderKeys = keys
	return nFirst, len(regions) - nFirst
}

// initBodies creates every kernel body once. The bodies read their
// per-launch parameters (current buffer, current tree level, scratch
// slices) from Deduplicator fields, so launching them allocates no
// closures — a requirement for the allocation-free steady state.
func (d *Deduplicator) initBodies() {
	//ckptlint:noalloc
	d.resetBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d.labels[i] = LabelNone
		}
	}

	// Lines 1-23 of Algorithm 1: hash every chunk and classify it as
	// FIXED_DUPL / FIRST_OCUR / SHIFT_DUPL against the historical
	// record of unique hashes, refreshing the leaf digests.
	//ckptlint:noalloc
	d.leafBody = func(lo, hi int) {
		g := &d.gs
		data := d.frontData
		var ops, fx int64
		for c := lo; c < hi; c++ {
			node := d.tree.LeafNode(c)
			off, end := d.chunkSpan(c)
			dig := d.hashChunk(data[off:end])
			if dig == d.tree.Digests[node] {
				d.labels[node] = LabelFixedDupl
				fx++
				continue
			}
			entry := hashmap.Entry{Node: uint32(node), Ckpt: d.ckptID}
			_, inserted, ierr := d.hmap.InsertIfAbsent(dig, entry)
			ops++
			if ierr != nil {
				g.fail(fmt.Errorf("dedup: historical record full at checkpoint %d (capacity %d); raise Options.MapCapacity: %w",
					d.ckptID, d.hmap.Capacity(), ierr))
				return
			}
			if inserted {
				d.labels[node] = LabelFirstOcur
			} else {
				// Lines 13-16: the earliest same-checkpoint occurrence
				// becomes canonical; later ones are shifted duplicates.
				d.hmap.UpdateIfEarlier(dig, entry)
				d.labels[node] = LabelShiftDupl
				ops++
			}
			d.tree.Digests[node] = dig
		}
		g.mapOps.Add(ops)
		g.fixedN.Add(fx)
	}

	// Reconciliation: align labels with the final map state. With
	// VerifyDuplicates, every shifted leaf is additionally
	// byte-compared against its recorded source (§2.4's hash-collision
	// mitigation); a mismatching chunk is demoted to a first occurrence
	// so its real bytes ship.
	//ckptlint:noalloc
	d.reconcileBody = func(lo, hi int) {
		g := &d.gs
		data := d.frontData
		var ops, fi, sh, vf int64
		for c := lo; c < hi; c++ {
			node := d.tree.LeafNode(c)
			lbl := d.labels[node]
			if lbl == LabelFixedDupl {
				continue
			}
			e, ok := d.hmap.Find(d.tree.Digests[node])
			ops++
			if ok && e.Node == uint32(node) && e.Ckpt == d.ckptID {
				d.labels[node] = LabelFirstOcur
				fi++
				continue
			}
			if d.opts.VerifyDuplicates {
				vf++
				off, end := d.chunkSpan(c)
				if !d.sourceMatches(e, data, data[off:end]) {
					d.labels[node] = LabelFirstOcur
					fi++
					continue
				}
			}
			d.labels[node] = LabelShiftDupl
			sh++
		}
		g.mapOps.Add(ops)
		g.firstN.Add(fi)
		g.shiftN.Add(sh)
		g.verified.Add(vf)
	}

	// Lines 24-32 of Algorithm 1: consolidate adjacent FIRST_OCUR
	// regions one level at a time (level interval in d.curLevelLo).
	//ckptlint:noalloc
	d.firstLevelBody = func(lo, hi int) {
		base := d.curLevelLo
		var p int64
		for i := lo; i < hi; i++ {
			v := base + i
			left, right := merkle.Left(v), merkle.Right(v)
			if d.labels[left] == LabelFirstOcur && d.labels[right] == LabelFirstOcur {
				dig := murmur3.SumPair(d.tree.Digests[left], d.tree.Digests[right], d.opts.Seed)
				d.tree.Digests[v] = dig
				d.hmap.InsertIfAbsent(dig, hashmap.Entry{Node: uint32(v), Ckpt: d.ckptID})
				d.labels[v] = LabelFirstOcur
				p++
			}
		}
		d.gs.promoted.Add(p)
	}

	// Lines 33-46 of Algorithm 1: consolidate FIXED_DUPL and SHIFT_DUPL
	// regions and save the roots of maximal uniform regions.
	//ckptlint:noalloc
	d.consolidateBody = func(lo, hi int) {
		base := d.curLevelLo
		buf := d.regions.take()
		var h, lk int64
		for i := lo; i < hi; i++ {
			v := base + i
			left, right := merkle.Left(v), merkle.Right(v)
			la, lb := d.labels[left], d.labels[right]
			switch {
			case la == LabelFirstOcur && lb == LabelFirstOcur:
				// Consolidated (and registered) by stage one.
			case la == LabelFixedDupl && lb == LabelFixedDupl:
				d.labels[v] = LabelFixedDupl
			case la == LabelShiftDupl && lb == LabelShiftDupl:
				dig := murmur3.SumPair(d.tree.Digests[left], d.tree.Digests[right], d.opts.Seed)
				d.tree.Digests[v] = dig
				h++
				e, ok := d.lookupShift(dig)
				lk++
				if ok && !(e.Node == uint32(v) && e.Ckpt == d.ckptID) {
					d.labels[v] = LabelShiftDupl
				} else {
					buf = d.emitChild(buf, left)
					buf = d.emitChild(buf, right)
					d.labels[v] = LabelMixed
				}
			default:
				// Differing labels (or a Mixed child): the
				// consolidatable children become region roots.
				buf = d.emitChild(buf, left)
				buf = d.emitChild(buf, right)
				d.labels[v] = LabelMixed
			}
		}
		d.regions.add(buf)
		d.gs.hashed.Add(h)
		d.gs.lookups.Add(lk)
	}

	// Serialization bodies (§2.4): region sizes, then the gather copy,
	// either team-coalesced or one thread per region (ablation).
	//ckptlint:noalloc
	d.gatherSizesBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off, end := d.tree.NodeSpan(int(d.gatherFirsts[i]), d.opts.ChunkSize, d.dataLen)
			d.gatherSizes[i] = int64(end - off)
		}
	}
	//ckptlint:noalloc
	d.gatherTeamBody = func(t parallel.Team) {
		i := t.LeagueRank()
		off, end := d.tree.NodeSpan(int(d.gatherFirsts[i]), d.opts.ChunkSize, d.dataLen)
		copy(d.gatherOut[d.gatherOffsets[i]:d.gatherOffsets[i]+d.gatherSizes[i]], d.gatherData[off:end])
	}
	//ckptlint:noalloc
	d.gatherPerThread = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			off, end := d.tree.NodeSpan(int(d.gatherFirsts[i]), d.opts.ChunkSize, d.dataLen)
			copy(d.gatherOut[d.gatherOffsets[i]:d.gatherOffsets[i]+d.gatherSizes[i]], d.gatherData[off:end])
		}
	}

	d.initBasicBodies()
}

// emitChild appends node c to buf when its label makes it a diff
// region root (FIRST_OCUR / SHIFT_DUPL).
//
//ckptlint:noalloc
func (d *Deduplicator) emitChild(buf []emittedRegion, c int) []emittedRegion {
	switch d.labels[c] {
	case LabelFirstOcur:
		return append(buf, emittedRegion{node: uint32(c), label: LabelFirstOcur})
	case LabelShiftDupl:
		src, ok := d.hmap.Find(d.tree.Digests[c])
		if !ok {
			// Unreachable by construction: every SHIFT_DUPL label
			// was assigned after a successful map lookup.
			//ckptlint:ignore noalloc unreachable panic path
			panic(fmt.Sprintf("dedup: shifted region %d missing from historical record", c))
		}
		return append(buf, emittedRegion{node: uint32(c), label: LabelShiftDupl, src: src})
	default: // LabelFixedDupl costs nothing; LabelMixed already emitted
		return buf
	}
}

// leafPhase implements lines 1-23 of Algorithm 1 via the stored leaf
// and reconciliation bodies.
//
// Concurrent inserts of the same digest race exactly as on the GPU;
// determinism is restored by (a) UpdateIfEarlier converging the map
// entry to the minimum node of the current checkpoint and (b) the
// reconciliation sweep that re-labels each leaf against the final map
// state, so FIRST_OCUR is held by exactly the leaf the map records.
func (d *Deduplicator) leafPhase(data []byte, l *launcher) (fixed, first, shift int64, err error) {
	pool := d.dev.Pool()
	g := &d.gs
	d.frontData = data
	g.mapOps.Store(0)
	g.fixedN.Store(0)
	g.firstN.Store(0)
	g.shiftN.Store(0)
	g.verified.Store(0)

	pool.ForRange(d.nChunks, d.leafBody)
	if err := g.takeErr(); err != nil {
		return 0, 0, 0, err
	}
	pool.ForRange(d.nChunks, d.reconcileBody)

	l.phase("leaf-hash", device.Cost{
		HashBytes: int64(float64(d.dataLen) * d.opts.HashCostMultiplier),
		MemBytes:  int64(d.nChunks)*16 + g.verified.Load()*2*int64(d.opts.ChunkSize),
		MapOps:    g.mapOps.Load(),
		ChunkOps:  int64(d.nChunks),
	})
	return g.fixedN.Load(), g.firstN.Load(), g.shiftN.Load(), nil
}

// sourceMatches byte-compares a chunk against the recorded source of
// its digest. Same-checkpoint sources are leaf chunks of the current
// buffer; older sources are read from the stored record.
func (d *Deduplicator) sourceMatches(e hashmap.Entry, data, chunk []byte) bool {
	if e.Ckpt == d.ckptID {
		off, end := d.tree.NodeSpan(int(e.Node), d.opts.ChunkSize, d.dataLen)
		if end-off != len(chunk) {
			return false
		}
		return bytesEqual(data[off:end], chunk)
	}
	src, err := d.record.RegionBytes(e.Ckpt, e.Node)
	if err != nil || len(src) != len(chunk) {
		return false
	}
	return bytesEqual(src, chunk)
}

func bytesEqual(a, b []byte) bool { return bytes.Equal(a, b) }

// resetLabels clears the label array before a sweep.
func (d *Deduplicator) resetLabels(l *launcher) {
	d.dev.Pool().ForRange(len(d.labels), d.resetBody)
	l.phase("reset-labels", device.Cost{MemBytes: int64(len(d.labels))})
}

// buildFirstOcurSubtrees implements lines 24-32 of Algorithm 1: a
// bottom-up level-parallel sweep that consolidates adjacent
// FIRST_OCUR regions, registering every consolidated region in the
// historical record. It runs to completion before the shifted
// duplicates are consolidated — the two-stage parallelization of §2.2
// that prevents shifted subtrees from missing first-occurrence entries
// still being hashed.
func (d *Deduplicator) buildFirstOcurSubtrees(l *launcher) {
	pool := d.dev.Pool()
	for _, lv := range d.levels {
		width := lv[1] - lv[0]
		d.curLevelLo = lv[0]
		d.gs.promoted.Store(0)
		pool.ForRange(width, d.firstLevelBody)
		promoted := d.gs.promoted.Load()
		l.phase("firstocur-level", device.Cost{
			HashBytes: int64(float64(promoted*32) * d.opts.HashCostMultiplier),
			MemBytes:  int64(width) * 2,
			MapOps:    promoted,
		})
	}
}

// consolidateAndEmit implements lines 33-46 of Algorithm 1: the second
// bottom-up sweep that consolidates FIXED_DUPL and SHIFT_DUPL regions
// and saves the roots of maximal uniform regions. FIXED_DUPL roots
// cost nothing and are dropped; FIRST_OCUR and SHIFT_DUPL roots are
// emitted as diff regions.
func (d *Deduplicator) consolidateAndEmit(l *launcher) []emittedRegion {
	pool := d.dev.Pool()
	d.regions.reset()

	for _, lv := range d.levels {
		width := lv[1] - lv[0]
		d.curLevelLo = lv[0]
		d.gs.hashed.Store(0)
		d.gs.lookups.Store(0)
		pool.ForRange(width, d.consolidateBody)
		l.phase("consolidate-level", device.Cost{
			HashBytes: int64(float64(d.gs.hashed.Load()*32) * d.opts.HashCostMultiplier),
			MemBytes:  int64(width) * 2,
			MapOps:    d.gs.lookups.Load(),
		})
	}

	// The root is the region when the whole buffer carries one label.
	switch d.labels[0] {
	case LabelFirstOcur:
		d.regions.appendOne(emittedRegion{node: 0, label: LabelFirstOcur})
	case LabelShiftDupl:
		src, ok := d.hmap.Find(d.tree.Digests[0])
		if !ok {
			panic("dedup: shifted root missing from historical record")
		}
		d.regions.appendOne(emittedRegion{node: 0, label: LabelShiftDupl, src: src})
	}
	return d.regions.snapshot()
}

// lookupShift resolves a consolidated shifted-duplicate hash in the
// historical record. In the SingleStage ablation, entries registered
// during the current checkpoint are invisible — modeling the race the
// two-stage parallelization exists to avoid (§2.2).
func (d *Deduplicator) lookupShift(dig murmur3.Digest) (hashmap.Entry, bool) {
	e, ok := d.hmap.Find(dig)
	if !ok {
		return e, false
	}
	if d.opts.SingleStage && e.Ckpt == d.ckptID {
		return hashmap.Entry{}, false
	}
	return e, true
}

// gather serializes the first-occurrence regions into one contiguous
// buffer: offsets are pre-calculated with an exclusive scan and the
// copies run team-parallel so accesses coalesce (§2.4, "high
// throughput serialization of scattered chunks"). The returned buffer
// is freshly allocated — it is retained by the diff — but the sizes
// and offsets scratch is reused across checkpoints.
func (d *Deduplicator) gather(data []byte, firstNodes []uint32, l *launcher) []byte {
	if len(firstNodes) == 0 {
		return nil
	}
	pool := d.dev.Pool()
	n := len(firstNodes)
	d.gatherData, d.gatherFirsts = data, firstNodes
	d.gatherSizes = grow(d.gatherSizes, n)
	d.gatherOffsets = grow(d.gatherOffsets, n)
	pool.ForRange(n, d.gatherSizesBody)
	total := parallel.ScanExclusive(pool, d.gatherSizes, d.gatherOffsets)
	out := make([]byte, total)
	d.gatherOut = out

	cost := device.Cost{MemBytes: 2 * total}
	if d.opts.PerThreadGather {
		// One thread per region: long strided copies, uncoalesced.
		cost.UncoalescedPenalty = 4
		pool.ForRange(n, d.gatherPerThread)
	} else {
		pool.ForTeams(n, 32, d.gatherTeamBody)
	}
	l.phase("gather", cost)
	d.gatherData, d.gatherFirsts, d.gatherOut = nil, nil, nil
	return out
}

// sortRegions orders emitted regions by their covered chunk range so
// the diff layout (and therefore the wire format) is deterministic.
// The returned slices are freshly allocated at their exact sizes (they
// are retained by the diff); the regions slice is left untouched.
func (d *Deduplicator) sortRegions(regions []emittedRegion) (firsts []uint32, shifts []checkpoint.ShiftRegion) {
	nFirst, nShift := d.orderRegions(regions)
	if nFirst > 0 {
		firsts = make([]uint32, 0, nFirst)
	}
	if nShift > 0 {
		shifts = make([]checkpoint.ShiftRegion, 0, nShift)
	}
	for _, k := range d.orderKeys {
		r := &regions[uint32(k)]
		if r.label == LabelFirstOcur {
			firsts = append(firsts, r.node)
			continue
		}
		shifts = append(shifts, checkpoint.ShiftRegion{
			Node:    r.node,
			SrcNode: r.src.Node,
			SrcCkpt: r.src.Ckpt,
		})
	}
	return firsts, shifts
}

// treeFrontResult carries the hash/label outcome of one Tree
// checkpoint from the front half to the (possibly pipelined) back
// half: leaf statistics, the fast-path flag and the sorted regions.
type treeFrontResult struct {
	st     Stats
	fast   bool
	firsts []uint32
	shifts []checkpoint.ShiftRegion
}

// treeFront runs the hash/label/consolidate phases of Algorithm 1
// (everything up to, but not including, the gather/serialize stage).
func (d *Deduplicator) treeFront(data []byte, l *launcher) (treeFrontResult, error) {
	var fr treeFrontResult
	d.resetLabels(l)
	fixed, first, shift, err := d.leafPhase(data, l)
	if err != nil {
		return fr, err
	}
	fr.st.FixedLeaves = int(fixed)
	fr.st.FirstLeaves = int(first)
	fr.st.ShiftLeaves = int(shift)

	// Fast path: a fully unchanged buffer needs no consolidation
	// sweeps at all (§2.4's mitigation of unnecessary intermediate
	// hashing between identical checkpoints).
	if first == 0 && shift == 0 {
		fr.fast = true
		fr.st.FastPath = true
		d.frontData = nil
		return fr, nil
	}

	d.buildFirstOcurSubtrees(l)
	regions := d.consolidateAndEmit(l)
	fr.firsts, fr.shifts = d.sortRegions(regions)
	fr.st.NumFirstOcur = len(fr.firsts)
	fr.st.NumShiftDupl = len(fr.shifts)
	d.frontData = nil
	return fr, nil
}

// treeBack runs the gather/serialize stage and assembles the diff for
// checkpoint id. In the pipelined engine it executes on the backend
// goroutine, overlapping the next checkpoint's treeFront; it touches
// only the gather scratch, the diff arena and fr — never the tree,
// labels or hash map the front half mutates.
func (d *Deduplicator) treeBack(data []byte, fr *treeFrontResult, l *launcher, id uint32) (*checkpoint.Diff, error) {
	dataLen, chunkSize := d.wireGeom()
	if fr.fast {
		l.flush()
		diff := d.newDiff()
		*diff = checkpoint.Diff{
			Method:    checkpoint.MethodTree,
			CkptID:    id,
			DataLen:   dataLen,
			ChunkSize: chunkSize,
		}
		return diff, nil
	}

	gathered := d.gather(data, fr.firsts, l)
	l.flush()

	// §2.4: when (almost) the whole buffer changed, incremental
	// checkpointing is deactivated for this interval — a Full diff
	// carries the same bytes without the metadata.
	if d.opts.AutoFallback && int64(len(gathered)) > int64(0.9*float64(d.dataLen)) {
		fr.st.FellBack = true
		cp := make([]byte, len(data))
		copy(cp, data)
		diff := d.newDiff()
		*diff = checkpoint.Diff{
			Method:    checkpoint.MethodFull,
			CkptID:    id,
			DataLen:   dataLen,
			ChunkSize: chunkSize,
			Data:      cp,
		}
		return diff, nil
	}

	diff := d.newDiff()
	*diff = checkpoint.Diff{
		Method:    checkpoint.MethodTree,
		CkptID:    id,
		DataLen:   dataLen,
		ChunkSize: chunkSize,
		FirstOcur: fr.firsts,
		ShiftDupl: fr.shifts,
		Data:      gathered,
	}
	return diff, nil
}

// checkpointTree runs the full Tree pipeline (Algorithm 1)
// synchronously: front and back halves on the caller's goroutine,
// sharing one launcher so fused mode still models a single kernel.
func (d *Deduplicator) checkpointTree(data []byte) (*checkpoint.Diff, Stats, error) {
	l := d.frontLauncher("tree-dedup")
	fr, err := d.treeFront(data, l)
	if err != nil {
		return nil, fr.st, err
	}
	diff, err := d.treeBack(data, &fr, l, d.ckptID)
	return diff, fr.st, err
}
