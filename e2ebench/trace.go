package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded around a call into a layer of
// the program (or around one benchmark op, for root spans). Times are
// nanoseconds since the tracer was created. The format written to disk
// is described in README.md.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Units  int64  `json:"units,omitempty"`
	Loop   bool   `json:"loop,omitempty"`
}

// tracer keeps spans in memory; nothing is written until flush. When
// on is false every call is a cheap no-op, which is how the traced run
// interleaves untraced units to measure the tracer's own overhead.
type tracer struct {
	on    bool
	loop  bool // ops begun now belong to a timed loop
	t0    time.Time
	spans []span
	op    int // current op id (0 = none)
	root  int // span id of the current op's root span
}

// newTracer returns a tracer that records when on; an untraced run's
// tracer holds no span storage.
func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now()}
	if on {
		t.spans = make([]span, 0, 1<<16)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// beginOp opens a root span that the layer spans of one checkpoint (or
// one benchmark step) hang under.
func (t *tracer) beginOp(name string) {
	if !t.on {
		return
	}
	t.op++
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Name: name, Start: t.now(), Loop: t.loop})
	t.root = len(t.spans)
}

func (t *tracer) endOp() {
	if !t.on || t.root == 0 {
		return
	}
	t.spans[t.root-1].End = t.now()
	t.root = 0
}

// begin opens a layer span under the current op and returns a handle
// for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Parent: t.root, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id; units is the work the call carried (input bytes
// for dedup, diffs for push; 0 when one call is one unit).
func (t *tracer) end(id int, units int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End, s.Units = t.now(), units
}

// durations returns the durations of every closed span with the given
// name, and the per-unit durations of those that carry units.
func (t *tracer) durations(name string) (d, perUnit []float64) {
	for _, s := range t.spans {
		if s.Name != name || s.End == 0 {
			continue
		}
		ms := float64(s.End-s.Start) / 1e6
		d = append(d, ms)
		if s.Units > 0 {
			perUnit = append(perUnit, ms/float64(s.Units))
		}
	}
	return d, perUnit
}

// selfTimes returns each span name's total self time in nanoseconds:
// the span's duration minus the part of its interval covered by the
// union of its children's intervals.
func (t *tracer) selfTimes() map[string]int64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// flush writes the spans as JSON lines to path.
func (t *tracer) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
