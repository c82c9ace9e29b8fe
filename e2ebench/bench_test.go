package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyOptions mirrors how run.sh calls the benchmark in a fresh
// checkout: the stores directory exists, the workdir does not yet.
// workloads are BENCHMARK.json's workloads and stream_ingest, which
// runs by hand only (see README.md).
func (s spec) workloads() []string {
	names := []string{"stream_ingest"}
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		workdir: filepath.Join(t.TempDir(), "not", "yet"), stores: t.TempDir(), tiny: true}
}

// TestEveryMetricPrinted runs every workload at the self-test sizes,
// untraced and traced, and checks that the result names exactly the
// metrics of BENCHMARK.json, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.workloads() {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(tinyOptions(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json names %v", w, trace, got, want)
			}
		}
	}
}

// TestWrongExpectedBufferFails proves the byte-exact check is live: a
// deliberately wrong expected buffer must fail every workload.
func TestWrongExpectedBufferFails(t *testing.T) {
	for _, w := range readSpec(t).workloads() {
		o := tinyOptions(t, w, false)
		o.corrupt = true
		res, err := run(o, io.Discard)
		if err == nil || res == nil || res.Correct {
			t.Errorf("%s: verification against a wrong buffer passed (err=%v)", w, err)
		}
	}
}

// TestCountsRepeat checks that round 0's server-boundary and store
// counts repeat exactly for a fixed seed on the workloads whose
// counts are gated.
func TestCountsRepeat(t *testing.T) {
	for _, w := range []string{"gdv_app", "tenant_mix"} {
		var prev *counts
		for i := 0; i < 2; i++ {
			var out bytes.Buffer
			if _, err := run(tinyOptions(t, w, false), &out); err != nil {
				t.Fatal(err)
			}
			c := firstCounts(t, &out)
			// Not program counts: write_bytes is page-granular kernel
			// accounting, and wchar also counts the Go runtime's
			// 8-byte eventfd writes that wake its network poller.
			c.WriteBytes, c.FileWriteBytes = 0, 0
			if prev != nil && *prev != *c {
				t.Errorf("%s: counts differ across runs of one seed:\n%+v\n%+v", w, *prev, *c)
			}
			prev = c
		}
	}
}

func firstCounts(t *testing.T, out *bytes.Buffer) *counts {
	t.Helper()
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Counts *counts `json:"counts"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Counts != nil {
			return line.Counts
		}
	}
	t.Fatal("no counts line in the output")
	return nil
}
