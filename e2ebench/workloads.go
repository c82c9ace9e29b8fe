package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/gpuckpt/gpuckpt"
)

// treeConfig is the paper's configuration: Tree de-duplication with
// every other setting at its default.
var treeConfig = gpuckpt.Config{Method: gpuckpt.MethodTree}

// mutate overwrites n random spans of size bytes with fresh random
// bytes: the sparse, scattered updates of an iterative application.
func mutate(rng *rand.Rand, buf []byte, n, size int) {
	for i := 0; i < n; i++ {
		off := rng.Intn(len(buf) - size + 1)
		rng.Read(buf[off : off+size])
	}
}

// ---- gdv_app --------------------------------------------------------

// gdvApp checkpoints the paper's application: the GDV snapshot series
// of an ORANGES run over the Message Race graph. Every round is a fresh
// store, Checkpointer and lineage fed the same snapshots, so round 0's
// counts repeat exactly for a seed.
type gdvApp struct {
	vertices, snapshots, keep int
	series                    *gpuckpt.WorkloadSeries
	ck                        *gpuckpt.Checkpointer // the round's
}

func newGDVApp(tiny bool) *gdvApp {
	if tiny {
		return &gdvApp{vertices: 1500, snapshots: 5, keep: 2}
	}
	return &gdvApp{vertices: 30000, snapshots: 20, keep: 8}
}

func (g *gdvApp) why() string {
	return "the paper's application: Algorithm 1 dedup of large GDV snapshots is most of the commit, storage and lifecycle do little"
}

func (g *gdvApp) sizes() map[string]int {
	m := map[string]int{"target_vertices": g.vertices, "snapshots_per_round": g.snapshots, "compact_probe_keep": g.keep}
	if g.series != nil {
		m["buffer_bytes"] = g.series.DataLen
		m["vertices"] = g.series.Vertices
	}
	return m
}

func (g *gdvApp) retention() string { return "" }

func (g *gdvApp) prepare(b *bench) error {
	g.series = nil // let the previous set-up's snapshots go first
	s, err := gpuckpt.BuildWorkloadSeries(gpuckpt.WorkloadConfig{
		Graph: "Message Race", TargetVertices: g.vertices, Checkpoints: g.snapshots, Seed: b.o.seed,
	})
	g.series = s
	return err
}

func (g *gdvApp) setup(r *round) (err error) {
	g.ck, err = gpuckpt.New(treeConfig, g.series.DataLen)
	return err
}

func (g *gdvApp) teardown() {
	if g.ck != nil {
		g.ck.Close()
		g.ck = nil
	}
}

const gdvLineage = "gdv"

func (g *gdvApp) loop(r *round) error {
	b := r.b
	return b.unit(func() error {
		for _, img := range g.series.Images {
			if r.idx > 0 && r.timeUp() {
				break
			}
			b.tr.beginOp("commit")
			err := r.pushCkpt(gdvLineage, g.ck, img)
			b.tr.endOp()
			if err != nil {
				break // counted; the lineage cannot go on
			}
		}
		return nil
	})
}

func (g *gdvApp) verify(r *round) error {
	expect := func(k int) []byte { return g.series.Images[k] }
	if err := r.restoreLatest(gdvLineage, expect); err != nil {
		return err
	}
	if err := r.verifySpan(gdvLineage, expect); err != nil {
		return err
	}
	if r.idx != 0 {
		return nil
	}
	if err := r.compactProbe(gdvLineage, g.keep, expect); err != nil {
		return err
	}
	return r.recordReplay(g.ck.NumCheckpoints(), g.ck.WriteDiff)
}

// ---- stream_ingest --------------------------------------------------

// streamIngest streams long, already de-duplicated diff chains: the
// chains are built during each round's set-up, then pushed one lineage
// at a time through the client's default stream window.
type streamIngest struct {
	lineages, chain, bufLen, rewrites, rewriteLen, keep int
	seed                                                int64

	// The deduplicated chains, one record per lineage, with each diff's
	// encoding; every round pushes them to a fresh store.
	recs   []*gpuckpt.Record
	encs   [][][]byte
	pushed int // lineages pushed in the current round
}

func newStreamIngest(tiny bool) *streamIngest {
	if tiny {
		return &streamIngest{lineages: 2, chain: 12, bufLen: 32 << 10, rewrites: 8, rewriteLen: 64, keep: 4}
	}
	// 400 diffs stay below the default historical-record capacity,
	// which this buffer shape exhausts at checkpoint 517.
	return &streamIngest{lineages: 4, chain: 400, bufLen: 256 << 10, rewrites: 32, rewriteLen: 64, keep: 8}
}

func (s *streamIngest) why() string {
	return "dedup is done in set-up, so wire framing, server decode and CRC, the intake group commit and block interning do all the timed work"
}

func (s *streamIngest) sizes() map[string]int {
	return map[string]int{"lineages_per_round": s.lineages, "diffs_per_lineage": s.chain, "buffer_bytes": s.bufLen,
		"rewrites_per_step": s.rewrites, "rewrite_bytes": s.rewriteLen, "compact_probe_keep": s.keep}
}

func (s *streamIngest) retention() string { return "" }

// prepare deduplicates every lineage's chain and keeps it as a Record,
// the form Client.PushRecord streams.
func (s *streamIngest) prepare(b *bench) error {
	s.seed = b.o.seed
	s.recs = make([]*gpuckpt.Record, s.lineages)
	s.encs = make([][][]byte, s.lineages)
	for l := range s.recs {
		rec, encs, err := s.dedupChain(b, l)
		if err != nil {
			return err
		}
		s.recs[l], s.encs[l] = rec, encs
	}
	return nil
}

func (s *streamIngest) dedupChain(b *bench, l int) (*gpuckpt.Record, [][]byte, error) {
	ck, err := gpuckpt.New(treeConfig, s.bufLen)
	if err != nil {
		return nil, nil, err
	}
	defer ck.Close()
	next := s.buffers(l)
	b.tr.beginOp("prepare")
	for k := 0; k < s.chain; k++ {
		buf := next()
		_, err := b.timed("dedup", func() int64 { return int64(len(buf)) }, func() error {
			_, err := ck.Checkpoint(buf)
			return err
		})
		if err != nil {
			b.attempted++
			b.fail("checkpoint", err)
			break
		}
	}
	b.tr.endOp()
	var all bytes.Buffer
	encs := make([][]byte, ck.NumCheckpoints())
	for k := range encs {
		var enc bytes.Buffer
		if err := ck.WriteDiff(k, &enc); err != nil {
			return nil, nil, err
		}
		encs[k] = enc.Bytes()
		all.Write(encs[k])
	}
	rec, err := gpuckpt.ReadRecord(&all)
	return rec, encs, err
}

// buffers returns a generator of lineage l's checkpoint buffers: a
// seeded random buffer, then one set of rewrites per call.
func (s *streamIngest) buffers(l int) func() []byte {
	rng := rand.New(rand.NewSource(s.seed*7919 + int64(l)))
	buf := make([]byte, s.bufLen)
	rng.Read(buf)
	first := true
	return func() []byte {
		if !first {
			mutate(rng, buf, s.rewrites, s.rewriteLen)
		}
		first = false
		return buf
	}
}

// expect returns the expected-buffer function of lineage l for
// verifySpan, which asks for checkpoints in increasing order.
func (s *streamIngest) expect(l int) func(k int) []byte {
	next := s.buffers(l)
	var buf []byte
	at := -1
	return func(k int) []byte {
		for at < k {
			buf = next()
			at++
		}
		return buf
	}
}

func (s *streamIngest) setup(r *round) error {
	s.pushed = 0
	return nil
}

func (s *streamIngest) teardown() {}

func (s *streamIngest) loop(r *round) error {
	for l := range s.recs {
		if r.idx > 0 && r.timeUp() {
			break
		}
		s.pushed++
		r.b.unit(func() error {
			s.push(r, l)
			return nil
		})
	}
	return nil
}

// verify restores every checkpoint of round 0 byte-exact. The later
// rounds push the same encoded diffs, so their check is that every
// stored diff reads back byte-identical to the encoding round 0
// restored; one restore per round keeps restore_ms sampled.
func (s *streamIngest) verify(r *round) error {
	if r.idx > 0 {
		if err := r.restoreLatest(streamLineage(0), s.expect(0)); err != nil {
			return err
		}
		for l := 0; l < s.pushed; l++ {
			if err := r.verifyEncoded(streamLineage(l), s.encs[l]); err != nil {
				return err
			}
		}
		return nil
	}
	for l := 0; l < s.pushed; l++ {
		if err := r.restoreLatest(streamLineage(l), s.expect(l)); err != nil {
			return err
		}
		if err := r.verifySpan(streamLineage(l), s.expect(l)); err != nil {
			return err
		}
	}
	if r.idx != 0 {
		return nil
	}
	if err := r.compactProbe(streamLineage(0), s.keep, s.expect(0)); err != nil {
		return err
	}
	r.b.replayBatch = 16
	return r.recordReplay(s.recs[0].Len(), s.recs[0].WriteDiff)
}

func streamLineage(l int) string { return fmt.Sprintf("stream-%d", l) }

// push streams one lineage's whole chain and records every acked diff.
func (s *streamIngest) push(r *round, l int) {
	b := r.b
	total := s.recs[l].Len()
	b.attempted += int64(total)
	b.tr.beginOp("stream")
	defer b.tr.endOp()
	var n int
	ms, err := b.timed("push", func() int64 { return int64(n) }, func() (err error) {
		n, err = r.cl.PushRecord(streamLineage(l), s.recs[l])
		return err
	})
	for k := 0; k < n; k++ {
		r.ack(int64(s.bufLen), int64(len(s.encs[l][k])))
	}
	if err != nil {
		b.fail("stream push", err)
		b.failed += int64(total - n - 1)
		return
	}
	b.commit = append(b.commit, ms/float64(max(n, 1)))
}

// ---- tenant_mix -----------------------------------------------------

// tenantMix interleaves writes, reads and compaction over tenants that
// share most of their content: each step checkpoints and pushes one
// tenant, then pulls and restores the latest checkpoint of the next.
type tenantMix struct {
	tenants, bufLen, pushes, compactEvery, keep, rewrites, rewriteLen int
	seed                                                              int64
	base                                                              []byte
	ts                                                                []*tenant // the round's
}

func newTenantMix(tiny bool) *tenantMix {
	if tiny {
		return &tenantMix{tenants: 4, bufLen: 64 << 10, pushes: 8, compactEvery: 4, keep: 2, rewrites: 8, rewriteLen: 64}
	}
	return &tenantMix{tenants: 4, bufLen: 1 << 20, pushes: 32, compactEvery: 16, keep: 8, rewrites: 32, rewriteLen: 64}
}

func (t *tenantMix) why() string {
	return "reads, compaction and cross-tenant block sharing beside writes, so write-path cost moved onto reads or lifecycle shows"
}

func (t *tenantMix) sizes() map[string]int {
	return map[string]int{"tenants": t.tenants, "buffer_bytes": t.bufLen, "pushes_per_tenant_per_round": t.pushes,
		"compact_every": t.compactEvery, "keep_last": t.keep, "rewrites_per_step": t.rewrites,
		"rewrite_bytes": t.rewriteLen, "shared_bytes": t.bufLen * 3 / 4}
}

func (t *tenantMix) retention() string { return fmt.Sprintf("keep-last=%d", t.keep) }

func (t *tenantMix) prepare(b *bench) error {
	t.seed = b.o.seed
	t.base = make([]byte, t.bufLen)
	rand.New(rand.NewSource(t.seed)).Read(t.base)
	return nil
}

type tenant struct {
	name     string
	ck       *gpuckpt.Checkpointer
	rng      *rand.Rand
	buf      []byte
	expected map[int][]byte // retained checkpoints' buffers
	pushes   int
}

// setup gives every tenant the shared base over the first three
// quarters of its buffer and seeded content of its own after it, and
// checkpoints and pushes that as the tenant's first checkpoint.
func (t *tenantMix) setup(r *round) error {
	t.ts = make([]*tenant, t.tenants)
	shared := t.bufLen * 3 / 4
	for i := range t.ts {
		ck, err := gpuckpt.New(treeConfig, t.bufLen)
		if err != nil {
			return err
		}
		tn := &tenant{name: fmt.Sprintf("tenant-%d", i), ck: ck, buf: append([]byte(nil), t.base...),
			rng: rand.New(rand.NewSource(t.seed*104729 + int64(i))), expected: map[int][]byte{}}
		t.ts[i] = tn
		tn.rng.Read(tn.buf[shared:])
		if _, err := ck.Checkpoint(tn.buf); err != nil {
			return err
		}
		if _, err := r.cl.PushCheckpointer(tn.name, ck); err != nil {
			return err
		}
		tn.expected[0] = append([]byte(nil), tn.buf...)
		// The loop restores each later checkpoint before it can be
		// folded away; the base is checked here.
		if err := r.verifySpan(tn.name, func(k int) []byte { return tn.expected[k] }); err != nil {
			return err
		}
	}
	return nil
}

func (t *tenantMix) teardown() {
	for _, tn := range t.ts {
		if tn != nil {
			tn.ck.Close()
		}
	}
	t.ts = nil
}

func (t *tenantMix) loop(r *round) error {
	for s := 0; s < t.tenants*t.pushes; s++ {
		if r.idx > 0 && r.timeUp() {
			break
		}
		tn, next := t.ts[s%t.tenants], t.ts[(s+1)%t.tenants]
		if err := r.b.unit(func() error { return t.step(r, tn, next) }); err != nil {
			return err
		}
	}
	return nil
}

func (t *tenantMix) verify(r *round) error {
	for _, tn := range t.ts {
		if err := r.verifySpan(tn.name, func(k int) []byte { return tn.expected[k] }); err != nil {
			return err
		}
		if err := r.recordReplay(tn.ck.NumCheckpoints(), tn.ck.WriteDiff); err != nil {
			return err
		}
	}
	return nil
}

// step checkpoints and pushes tn (compacting it after every
// compactEvery of its pushes), then restores next's latest checkpoint
// from the server.
func (t *tenantMix) step(r *round, tn, next *tenant) error {
	b := r.b
	b.tr.beginOp("step")
	defer b.tr.endOp()
	mutate(tn.rng, tn.buf, t.rewrites, t.rewriteLen)
	if err := r.pushCkpt(tn.name, tn.ck, tn.buf); err == nil {
		tn.expected[tn.ck.NumCheckpoints()-1] = append([]byte(nil), tn.buf...)
		tn.pushes++
		if tn.pushes%t.compactEvery == 0 {
			t.compact(r, tn)
		}
	}
	return r.pullRestore(next.name, func(k int) []byte { return next.expected[k] })
}

// compact folds tn under the server's keep-last retention policy and
// forgets the expected buffers of the folded checkpoints.
func (t *tenantMix) compact(r *round, tn *tenant) {
	b := r.b
	b.attempted++
	var info gpuckpt.CompactInfo
	_, err := b.timed("compact", nil, func() (err error) {
		info, err = r.cl.Compact(tn.name)
		return err
	})
	if err != nil {
		b.fail("compact", err)
		return
	}
	for k := range tn.expected {
		if k < info.NewBase {
			delete(tn.expected, k)
		}
	}
}
