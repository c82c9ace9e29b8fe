package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"github.com/gpuckpt/gpuckpt/internal/blockstore"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
)

// layerSpans are the spans recorded around calls into the program;
// every other span is the root span of one of the benchmark's ops.
var layerSpans = []string{"dedup", "push", "pull", "restore", "compact"}

// layerMetrics computes the per-layer metrics of the traced run and
// prints the self-time breakdown on a line of its own.
func (b *bench) layerMetrics(stdout io.Writer) (map[string]metric, error) {
	rep, err := b.replayStorage()
	if err != nil {
		return nil, fmt.Errorf("isolated replay: %w", err)
	}
	dedupMs, _ := b.tr.durations("dedup")
	pushMs, pushPerDiff := b.tr.durations("push")
	pullMs, _ := b.tr.durations("pull")
	restoreMs, _ := b.tr.durations("restore")
	compactMs, _ := b.tr.durations("compact")

	// Self time of the layer spans inside traced loop units, against
	// the wall of those units; what they do not cover is unattributed.
	self := b.loopSelfTimes()
	var attributed int64
	for _, name := range layerSpans {
		attributed += self[name]
	}
	tracedWall := float64(b.unitWall[1])
	unattributed := ratio(tracedWall-float64(attributed), tracedWall)
	overhead := ratio(ratio(float64(b.unitWall[1]), float64(b.unitN[1])),
		ratio(float64(b.unitWall[0]), float64(b.unitN[0]))) - 1

	breakdown := map[string]float64{}
	for _, name := range layerSpans {
		breakdown[name] = ratio(float64(self[name]), tracedWall)
	}
	breakdown["unattributed"] = unattributed
	line, _ := json.Marshal(map[string]any{"self_share_of_loop": breakdown,
		"traced_units": b.unitN[1], "untraced_units": b.unitN[0], "spans": len(b.tr.spans)})
	fmt.Fprintln(stdout, string(line))
	if err := b.tr.flush(filepath.Join(b.o.workdir, fmt.Sprintf("%s-seed%d.spans.jsonl", b.o.workload, b.o.seed))); err != nil {
		return nil, err
	}

	f := b.first
	var dedupNs, dedupBytes int64
	for _, s := range b.tr.spans {
		if s.Name == "dedup" && s.End != 0 {
			dedupNs += s.End - s.Start
			dedupBytes += s.Units
		}
	}
	return map[string]metric{
		"dedup.checkpoint_ms.p50":            {quantile(dedupMs, 0.5), "ms"},
		"dedup.gbps":                         {ratio(float64(dedupBytes), float64(dedupNs)), "GB/s"},
		"dedup.diff_bytes_per_input_byte":    {ratio(float64(f.PayloadBytes), float64(f.InputBytes)), "ratio"},
		"client.push_ms.p50":                 {quantile(pushMs, 0.5), "ms"},
		"client.push_ms.p90":                 {quantile(pushMs, 0.9), "ms"},
		"client.stream_push_ms.p50":          {quantile(pushPerDiff, 0.5), "ms"},
		"server.requests_per_diff":           {ratio(float64(f.Requests), float64(f.Diffs)), "ratio"},
		"server.bytes_in_per_payload_byte":   {ratio(float64(f.BytesIn), float64(f.PayloadBytes)), "ratio"},
		"checkpoint.append_ms_per_diff":      {rep.appendMsPerDiff, "ms"},
		"checkpoint.materialize_ms_per_diff": {rep.materializeMsPerDiff, "ms"},
		"checkpoint.files_per_diff":          {rep.filesPerDiff, "ratio"},
		"blockstore.intern_us_per_block":     {rep.internUsPerBlock, "us"},
		"blockstore.hit_ratio":               {ratio(float64(f.BlockHits), float64(f.BlockHits+f.BlocksInterned)), "ratio"},
		"client.pull_ms.p50":                 {quantile(pullMs, 0.5), "ms"},
		"checkpoint.restore_ms.p50":          {quantile(restoreMs, 0.5), "ms"},
		"lifecycle.compact_ms.p50":           {quantile(compactMs, 0.5), "ms"},
		"lifecycle.reclaimed_bytes":          {float64(b.reclaimed), "bytes"},
		"runtime.alloc_bytes_per_diff":       {ratio(float64(b.allocBytes), float64(b.acked)), "bytes"},
		"runtime.gc_cycles":                  {float64(b.gcCycles), "count"},
		"tail.commit_ms.p90":                 {quantile(b.commit, 0.9), "ms"},
		"tail.restore_ms.p90":                {quantile(b.restore, 0.9), "ms"},
		"trace.unattributed_share":           {unattributed, "ratio"},
		"trace.overhead_share":               {overhead, "ratio"},
	}, nil
}

// loopSelfTimes sums span self times over the ops that ran inside a
// timed loop.
func (b *bench) loopSelfTimes() map[string]int64 {
	inLoop := map[int]bool{}
	for _, s := range b.tr.spans {
		if s.Parent == 0 && s.Loop {
			inLoop[s.Op] = true
		}
	}
	sub := &tracer{}
	for _, s := range b.tr.spans {
		if inLoop[s.Op] {
			sub.spans = append(sub.spans, s)
		}
	}
	return sub.selfTimes()
}

type replayResult struct {
	appendMsPerDiff, materializeMsPerDiff, filesPerDiff, internUsPerBlock float64
}

// replayStorage re-appends the recorded round-0 diffs through
// FileStore.AppendBatch into fresh lineage stores that share one block
// store, as the server attaches them, on the workload's filesystem;
// then forces the deferred materialization with a read. A second
// fresh block store times Store.Intern alone on the same data
// sections. This isolates the storage layers from the wire and the
// server: it estimates their share until the server has stage timers.
func (b *bench) replayStorage() (replayResult, error) {
	var res replayResult
	dir := filepath.Join(b.dir, "replay")
	bs, err := blockstore.Open(filepath.Join(dir, "store", blockstore.DirName), blockstore.Options{})
	if err != nil {
		return res, err
	}
	var appendT, matT time.Duration
	var diffs int
	for i, ds := range b.replay {
		fs, err := checkpoint.NewFileStoreWith(filepath.Join(dir, "store", fmt.Sprintf("l%d", i)), bs)
		if err != nil {
			bs.Close()
			return res, err
		}
		for lo := 0; lo < len(ds); lo += b.replayBatch {
			hi := min(lo+b.replayBatch, len(ds))
			t := time.Now()
			_, err := fs.AppendBatch(ds[lo:hi])
			appendT += time.Since(t)
			if err != nil {
				fs.Close()
				bs.Close()
				return res, err
			}
		}
		t := time.Now()
		_, err = fs.DiffBytes(len(ds) - 1)
		matT += time.Since(t)
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			bs.Close()
			return res, err
		}
		diffs += len(ds)
	}
	if err := bs.Close(); err != nil {
		return res, err
	}
	files, _, err := walkStore(filepath.Join(dir, "store"))
	if err != nil {
		return res, err
	}

	is, err := blockstore.Open(filepath.Join(dir, "intern"), blockstore.Options{})
	if err != nil {
		return res, err
	}
	var internT time.Duration
	var blocks int
	for _, ds := range b.replay {
		for _, d := range ds {
			chunks := is.Split(d.Data)
			t := time.Now()
			_, err := is.Intern(chunks)
			internT += time.Since(t)
			if err != nil {
				is.Close()
				return res, err
			}
			blocks += len(chunks)
		}
	}
	if err := is.Close(); err != nil {
		return res, err
	}
	res.appendMsPerDiff = ratio(float64(appendT)/1e6, float64(diffs))
	res.materializeMsPerDiff = ratio(float64(matT)/1e6, float64(diffs))
	res.filesPerDiff = ratio(float64(files), float64(diffs))
	res.internUsPerBlock = ratio(float64(internT)/1e3, float64(blocks))
	return res, nil
}
