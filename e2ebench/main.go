// Command e2ebench is gpuckpt's end-to-end benchmark. It drives the
// whole checkpoint path — application buffer, Algorithm 1 dedup, diff
// encode, wire stream, in-process ckptd server on loopback, intake
// group commit, block store, ack — and the read and lifecycle paths
// behind it, under one of three closed-loop workloads, then restores
// every acked checkpoint and checks it byte-exact.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload gdv_app --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the JSON result: with --trace 0
// the end-to-end metrics, with --trace 1 the per-layer metrics of a
// separate traced run. See README.md for the workloads, the metrics
// and the span format.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/gpuckpt/gpuckpt"
	"github.com/gpuckpt/gpuckpt/internal/checkpoint"
	"github.com/gpuckpt/gpuckpt/internal/hashmap"
	"github.com/gpuckpt/gpuckpt/internal/server"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string // span files; stores too unless stores is set
	// stores, when set, is the directory the stores live in: run.sh
	// mounts a private tmpfs there.
	stores string
	tiny   bool // self-test sizes
	// corrupt makes verification compare against a deliberately wrong
	// expected buffer; the self-test uses it to prove the check is live.
	corrupt bool
}

// workload is one named closed loop. prepare builds the inputs from
// the seed (the program receives only the generated buffers); setup
// builds a round's program state against a fresh store; loop is the
// timed work of one round, a fixed quantum (round 0 always runs it
// whole, later rounds stop at the run length); verify restores what
// the round acked and checks it byte-exact; teardown releases the
// round's program state.
type workload interface {
	why() string
	sizes() map[string]int
	retention() string
	prepare(b *bench) error
	setup(r *round) error
	loop(r *round) error
	verify(r *round) error
	teardown()
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "gdv_app":
		return newGDVApp(o.tiny), nil
	case "stream_ingest":
		return newStreamIngest(o.tiny), nil
	case "tenant_mix":
		return newTenantMix(o.tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (gdv_app, stream_ingest, tenant_mix)", o.workload)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "gdv_app, stream_ingest or tenant_mix")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	secs := flag.Float64("seconds", 10, "measured loop time per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/e2ebench", "directory for span files, and for stores unless -stores is set")
	flag.StringVar(&o.stores, "stores", "", "directory for the stores (empty: -workdir)")
	flag.BoolVar(&o.tiny, "tiny", false, "use the self-test sizes")
	flag.Parse()
	o.seconds = time.Duration(*secs * float64(time.Second))
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if res != nil {
		out, _ := json.Marshal(res)
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// counts are the server-boundary and store counts of round 0, a fixed
// quantum of work, so that they repeat exactly for a fixed seed.
type counts struct {
	Diffs          int64  `json:"diffs"`
	InputBytes     int64  `json:"input_bytes"`
	PayloadBytes   int64  `json:"payload_bytes"` // encoded diff bytes pushed
	Requests       uint64 `json:"requests"`
	BytesIn        uint64 `json:"bytes_in"`
	BytesOut       uint64 `json:"bytes_out"`
	BlocksInterned uint64 `json:"blocks_interned"`
	BlockHits      uint64 `json:"block_hits"`
	ReclaimedBytes uint64 `json:"reclaimed_bytes"`
	Compactions    uint64 `json:"compactions"`
	StoreFiles     int64  `json:"store_files"`
	StoreBytes     int64  `json:"store_bytes"`
	// FileWriteBytes is what the program wrote to files: the wchar
	// delta minus the protocol bytes both ends wrote to the socket.
	FileWriteBytes int64 `json:"file_write_bytes"`
	// WriteBytes is the kernel's write_bytes delta: page-granular,
	// and 0 on tmpfs.
	WriteBytes int64 `json:"write_bytes"`
}

// bench accumulates one run's measurements across its rounds.
type bench struct {
	o   options
	w   workload
	dir string // this run's stores and replay, removed when the run ends
	tr  *tracer

	setup   []float64 // seconds per set-up from scratch
	commit  []float64 // ms per acked checkpoint
	restore []float64 // ms per Pull + Restore

	loopWall          time.Duration
	acked             int64
	allocBytes        uint64
	gcCycles          uint32
	attempted, failed int64
	failures          map[string]int64
	first             *counts
	reclaimed         uint64 // round 0's STATS ReclaimedBytes, after its compactions
	storeFS           string // statfs type of the store roots
	rounds            int
	roundLoop         []float64 // seconds of each round's loop
	// roundGBps and roundDiffs are each round's input GB and diffs
	// acked per second of its loop.
	roundGBps, roundDiffs []float64

	// replay holds round-0 diffs per lineage for the isolated storage
	// replay of the traced run; replayBatch is the AppendBatch size.
	replay      [][]*checkpoint.Diff
	replayBatch int

	// unitWall and unitN are the walls and op counts of the traced
	// run's interleaving units, [untraced, traced].
	unitWall [2]time.Duration
	unitN    [2]int
	unitNo   int
}

// timeUp reports whether the measured loop time has reached the run
// length, counting the loop that is running now.
func (r *round) timeUp() bool {
	return r.b.loopWall+time.Since(r.loopStart) >= r.b.o.seconds
}

// fail counts a failed op and classifies it.
func (b *bench) fail(op string, err error) {
	b.failed++
	class := "other"
	var re *gpuckpt.RemoteError
	switch {
	case errors.Is(err, hashmap.ErrFull):
		class = "map_full"
	case errors.As(err, &re):
		class = "remote"
	case strings.Contains(err.Error(), "failed after"):
		class = "retries_exhausted"
	}
	b.failures[class]++
	fmt.Fprintf(os.Stderr, "e2ebench: %s failed (%s): %v\n", op, class, err)
}

// round is one fresh store root with its in-process server and client.
type round struct {
	b      *bench
	idx    int
	root   string
	srv    *server.Server
	cl     *gpuckpt.Client
	cancel context.CancelFunc
	done   chan error

	loopStart time.Time
	stats0    gpuckpt.ServerStats
	statsXchg int64 // protocol bytes of one STATS request and response
	io0       procIO
	mem0      runtime.MemStats
	c         counts // this round's loop counts
}

func (b *bench) openRound(idx int) (*round, error) {
	root := filepath.Join(b.dir, fmt.Sprintf("store-%d-%d", idx, len(b.setup)))
	srv, err := server.New(server.Config{Root: root, Retention: b.w.retention(), Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &round{b: b, idx: idx, root: root, srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(ctx, ln) }()
	cl, err := gpuckpt.Dial(ln.Addr().String(), 30*time.Second)
	if err != nil {
		r.close()
		return nil, err
	}
	r.cl = cl
	if b.storeFS == "" {
		b.storeFS = fsTypeName(root)
	}
	return r, nil
}

// close stops the client and server, waits for the server to return
// and removes the store root.
func (r *round) close() error {
	var err error
	if r.cl != nil {
		if r.idx == 0 {
			st, serr := r.cl.Stats()
			r.b.reclaimed, err = st.ReclaimedBytes, serr
		}
		if cerr := r.cl.Close(); err == nil {
			err = cerr
		}
	}
	r.cancel()
	if serr := <-r.done; serr != nil && err == nil {
		err = serr
	}
	if cerr := r.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(r.root); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// startLoop marks the start of the round's timed region.
func (r *round) startLoop() error {
	pre, err := r.cl.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	st, err := r.cl.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	r.stats0 = st
	r.statsXchg = socketBytes(st) - socketBytes(pre)
	runtime.ReadMemStats(&r.mem0)
	r.io0 = readProcIO()
	r.b.tr.loop = true
	r.loopStart = time.Now()
	return nil
}

// stopLoop ends the timed region and folds its counts into the run.
// Round 0's counts (and its store walk) become the run's exact counts.
func (r *round) stopLoop() error {
	b := r.b
	d := time.Since(r.loopStart)
	b.loopWall += d
	b.roundLoop = append(b.roundLoop, d.Seconds())
	b.tr.loop = false
	io := readProcIO()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	b.allocBytes += mem.TotalAlloc - r.mem0.TotalAlloc
	b.gcCycles += mem.NumGC - r.mem0.NumGC
	st, err := r.cl.Stats()
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	c := &r.c
	b.roundGBps = append(b.roundGBps, float64(c.InputBytes)/d.Seconds()/1e9)
	b.roundDiffs = append(b.roundDiffs, float64(c.Diffs)/d.Seconds())
	c.Requests = st.Requests - r.stats0.Requests
	c.BytesIn = st.BytesIn - r.stats0.BytesIn
	c.BytesOut = st.BytesOut - r.stats0.BytesOut
	c.BlocksInterned = st.BlocksInterned - r.stats0.BlocksInterned
	c.BlockHits = st.BlockDedupHits - r.stats0.BlockDedupHits
	c.ReclaimedBytes = st.ReclaimedBytes - r.stats0.ReclaimedBytes
	c.Compactions = st.Compactions - r.stats0.Compactions
	c.WriteBytes = io.writeBytes - r.io0.writeBytes
	// The socket bytes in the STATS deltas include the STATS exchange
	// that brackets the loop, whose writes fall outside the wchar
	// window.
	c.FileWriteBytes = io.wchar - r.io0.wchar - (socketBytes(st) - socketBytes(r.stats0) - r.statsXchg)
	if c.StoreFiles, c.StoreBytes, err = walkStore(r.root); err != nil {
		return err
	}
	if b.first == nil {
		cp := *c
		b.first = &cp
	}
	return nil
}

// ack records one acked checkpoint of inputLen application bytes whose
// diff is diffLen bytes.
func (r *round) ack(inputLen, diffLen int64) {
	b := r.b
	b.acked++
	r.c.Diffs++
	r.c.InputBytes += inputLen
	r.c.PayloadBytes += diffLen
}

// unit brackets one interleaving unit of the traced run: even units
// are traced, odd ones not, and their walls give the tracing overhead.
func (b *bench) unit(fn func() error) error {
	on := b.o.trace && b.unitNo%2 == 0
	b.tr.on = on
	b.unitNo++
	ops := b.attempted
	t := time.Now()
	err := fn()
	i := 0
	if on {
		i = 1
	}
	b.unitWall[i] += time.Since(t)
	b.unitN[i] += int(b.attempted - ops)
	b.tr.on = b.o.trace
	return err
}

// timed runs fn inside a layer span and returns its wall time in ms.
func (b *bench) timed(name string, units func() int64, fn func() error) (float64, error) {
	id := b.tr.begin(name)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	var n int64
	if units != nil {
		n = units()
	}
	b.tr.end(id, n)
	return float64(d) / 1e6, err
}

// pushCkpt runs one commit — Checkpointer.Checkpoint, then
// Client.PushCheckpointer waiting for the ack — and records it. The
// caller opens the op its spans hang under.
func (r *round) pushCkpt(name string, ck *gpuckpt.Checkpointer, buf []byte) error {
	b := r.b
	b.attempted++
	t := time.Now()
	var res gpuckpt.Result
	_, err := b.timed("dedup", func() int64 { return int64(len(buf)) }, func() (err error) {
		res, err = ck.Checkpoint(buf)
		return err
	})
	if err != nil {
		b.fail("checkpoint", err)
		return err
	}
	var n int
	_, err = b.timed("push", func() int64 { return int64(n) }, func() (err error) {
		n, err = r.cl.PushCheckpointer(name, ck)
		return err
	})
	if err != nil {
		b.fail("push", err)
		return err
	}
	b.commit = append(b.commit, float64(time.Since(t))/1e6)
	r.ack(res.InputBytes, res.StoredBytes)
	return nil
}

// pullRestore pulls the lineage, restores its latest checkpoint and
// checks it against want(k).
func (r *round) pullRestore(name string, want func(k int) []byte) error {
	b := r.b
	b.attempted++
	t := time.Now()
	var rec *gpuckpt.Record
	_, err := b.timed("pull", nil, func() (err error) {
		rec, err = r.cl.Pull(name)
		return err
	})
	if err != nil {
		b.fail("pull", err)
		return nil
	}
	k := rec.Len() - 1
	var got []byte
	_, err = b.timed("restore", nil, func() (err error) {
		got, err = rec.Restore(k)
		return err
	})
	if err != nil {
		b.fail("restore", err)
		return nil
	}
	b.restore = append(b.restore, float64(time.Since(t))/1e6)
	return b.check(name, k, got, want(k))
}

// restoreLatest is the verification-time restore of gdv_app and
// stream_ingest: pull a lineage and restore its latest checkpoint, the
// first read after ingest, which forces the deferred materialization.
func (r *round) restoreLatest(name string, want func(k int) []byte) error {
	r.b.tr.beginOp("verify")
	defer r.b.tr.endOp()
	return r.pullRestore(name, want)
}

// check compares a restored buffer with the expected one. A mismatch
// is a correctness failure that ends the run.
func (b *bench) check(name string, k int, got, want []byte) error {
	if b.o.corrupt && len(want) > 0 {
		want = append([]byte(nil), want...)
		want[len(want)/2] ^= 0xFF
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("lineage %q checkpoint %d: %d bytes read back differ from the %d bytes expected", name, k, len(got), len(want))
	}
	return nil
}

// verifySpan restores every retained checkpoint of a lineage from the
// server, in order, by pulling each diff and applying it onto the
// previous state, and checks each against expect(k). expect is called
// with increasing k.
func (r *round) verifySpan(name string, expect func(k int) []byte) error {
	base, n, err := r.cl.Span(name)
	if err != nil {
		return fmt.Errorf("span of %q: %w", name, err)
	}
	rec := checkpoint.NewRecord()
	var state []byte
	for ck := base; ck < n; ck++ {
		raw, err := r.cl.PullDiff(name, ck)
		if err != nil {
			return fmt.Errorf("pulling %q diff %d: %w", name, ck, err)
		}
		d, err := checkpoint.Decode(bytes.NewReader(raw))
		if err == nil {
			err = d.Rebase(-int64(base))
		}
		if err == nil {
			err = rec.Append(d)
		}
		if err != nil {
			return fmt.Errorf("%q diff %d: %w", name, ck, err)
		}
		if state == nil {
			state = make([]byte, rec.DataLen())
		}
		if err := rec.Apply(state, ck-base); err != nil {
			return fmt.Errorf("applying %q diff %d: %w", name, ck, err)
		}
		if err := r.b.check(name, ck, state, expect(ck)); err != nil {
			return err
		}
	}
	return nil
}

// verifyEncoded checks that every stored diff of a lineage reads back
// byte-identical to encs, the encodings that were pushed.
func (r *round) verifyEncoded(name string, encs [][]byte) error {
	base, n, err := r.cl.Span(name)
	if err != nil {
		return fmt.Errorf("span of %q: %w", name, err)
	}
	for ck := base; ck < n; ck++ {
		raw, err := r.cl.PullDiff(name, ck)
		if err != nil {
			return fmt.Errorf("pulling %q diff %d: %w", name, ck, err)
		}
		if err := r.b.check(name, ck, raw, encs[ck]); err != nil {
			return err
		}
	}
	return nil
}

// compactProbe folds a lineage down to its last keep checkpoints with
// an explicit compaction and re-verifies the retained span, so the
// lifecycle layer is measured (and checked) on every workload.
func (r *round) compactProbe(name string, keep int, expect func(k int) []byte) error {
	b := r.b
	_, n, err := r.cl.Span(name)
	if err != nil {
		return err
	}
	if n <= keep {
		return nil
	}
	b.attempted++
	b.tr.beginOp("probe")
	_, err = b.timed("compact", nil, func() error {
		_, err := r.cl.CompactTo(name, n-keep)
		return err
	})
	b.tr.endOp()
	if err != nil {
		b.fail("compact", err)
		return nil
	}
	return r.verifySpan(name, expect)
}

// recordReplay keeps the n diffs of a round-0 lineage, as writeDiff
// encodes them, for the isolated storage replay of the traced run.
func (r *round) recordReplay(n int, writeDiff func(k int, w io.Writer) error) error {
	if r.idx != 0 || !r.b.o.trace {
		return nil
	}
	var ds []*checkpoint.Diff
	var buf bytes.Buffer
	for k := 0; k < n; k++ {
		buf.Reset()
		if err := writeDiff(k, &buf); err != nil {
			return err
		}
		d, err := checkpoint.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	r.b.replay = append(r.b.replay, ds)
	return nil
}

// setupRepeats is how many times a run sets up from scratch; setup_s
// is the median.
const setupRepeats = 9

// runRound runs a set-up round's timed loop and then its verification.
func (b *bench) runRound(r *round) error {
	if err := r.startLoop(); err != nil {
		return err
	}
	if err := b.w.loop(r); err != nil {
		return err
	}
	if err := r.stopLoop(); err != nil {
		return err
	}
	return b.w.verify(r)
}

func run(o options, stdout io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	stores := o.stores
	if stores == "" {
		stores = o.workdir
	}
	dir := filepath.Join(stores, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{o: o, w: w, dir: dir, tr: newTracer(o.trace), failures: map[string]int64{}, replayBatch: 1}
	err = b.measure()

	env := newEnvStamp(o, w.why(), w.sizes())
	env.FSType = b.storeFS
	line, _ := json.Marshal(map[string]any{"env": env, "counts": b.first, "failures": b.failures,
		"rounds": b.rounds, "round_loop_s": b.roundLoop, "setup_s": b.setup})
	fmt.Fprintln(stdout, string(line))
	res := &result{Attempted: max(b.attempted, 1), Failed: b.failed, Metrics: map[string]metric{}}
	if err == nil {
		if o.trace {
			res.Metrics, err = b.layerMetrics(stdout)
		} else {
			res.Metrics = b.endToEnd()
		}
	}
	res.Correct = err == nil
	return res, err
}

// measure sets up round 0 setupRepeats times from scratch (inputs,
// store, server, client, program state), keeps the last set-up, and
// runs rounds until the loop time reaches the run length.
func (b *bench) measure() error {
	w := b.w
	var r *round
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			w.teardown()
			if err := r.close(); err != nil {
				return err
			}
		}
		runtime.GC() // the previous repetition's inputs are garbage now
		t := time.Now()
		if err := w.prepare(b); err != nil {
			return fmt.Errorf("preparing inputs: %w", err)
		}
		var err error
		if r, err = b.setupRound(0); err != nil {
			return err
		}
		b.setup = append(b.setup, time.Since(t).Seconds())
	}
	for idx := 0; idx == 0 || b.loopWall < b.o.seconds; idx++ {
		if idx > 0 {
			var err error
			if r, err = b.setupRound(idx); err != nil {
				return err
			}
		}
		err := b.runRound(r)
		b.rounds++
		w.teardown()
		if cerr := r.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// setupRound opens a fresh store, server and client and builds the
// workload's program state on them.
func (b *bench) setupRound(idx int) (*round, error) {
	r, err := b.openRound(idx)
	if err != nil {
		return nil, fmt.Errorf("round %d set-up: %w", idx, err)
	}
	if err := b.w.setup(r); err != nil {
		b.w.teardown()
		r.close()
		return nil, fmt.Errorf("round %d set-up: %w", idx, err)
	}
	return r, nil
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd reports the run's end-to-end metrics. The rates are the
// first quartile of the whole rounds' rates, the rate three rounds in
// four reach. On gdv_app a round's first, full checkpoint takes 25 to
// 140 ms on a fresh Checkpointer, in two clusters whose shares move
// from run to run with the host's load (the 19 incremental ones take
// 4-8 ms); the share moves a mean or median rate about four times
// as much as the first quartile, which stays among the slow rounds.
func (b *bench) endToEnd() map[string]metric {
	f := b.first
	whole := len(b.roundGBps)
	if whole > 1 {
		whole-- // the last round may have stopped early
	}
	return map[string]metric{
		"setup_s":                      {quantile(b.setup, 0.5), "s"},
		"commit_ms.p50":                {quantile(b.commit, 0.5), "ms"},
		"ckpt_gbps":                    {quantile(b.roundGBps[:whole], 0.25), "GB/s"},
		"ingest_diffs_per_s":           {quantile(b.roundDiffs[:whole], 0.25), "1/s"},
		"restore_ms.p50":               {quantile(b.restore, 0.5), "ms"},
		"stored_bytes_per_input_byte":  {ratio(float64(f.StoreBytes), float64(f.InputBytes)), "ratio"},
		"write_bytes_per_payload_byte": {ratio(float64(f.FileWriteBytes), float64(f.PayloadBytes)), "ratio"},
		"peak_rss_mib":                 {peakRSSMiB(), "MiB"},
	}
}
