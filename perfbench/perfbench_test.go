package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkDefs reads the metric names the benchmark promises.
func benchmarkDefs(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// layerApplies lists, per workload, per-layer metrics that must be
// non-zero in a traced run.
var layerApplies = map[string][]string{
	"suite": {"cc.parse_ms", "simplify.ms", "pta.ms", "pta.steps", "check.ms", "taint.ms", "pointsto.rerun_ms", "trace.pass_ms_p50"},
	"gen":   {"pta.ms", "race.ms", "modref.ms", "race.diags", "pointsto.rerun_ms", "trace.pass_ms_p50"},
	"serve": {"cc.parse_ms", "pta.fingerprint_ms", "live.ms", "pta.demand_ms", "server.overhead_ms_p50",
		"server.query_ms_p50", "server.resp_kb", "server.cache_hit_rate", "trace.pass_ms_p50"},
}

// TestWorkloads runs every workload for the shortest possible time, once
// untraced and once traced, and checks that no verdict fails and that
// every promised metric is reported.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := benchmarkDefs(t)
	for _, w := range []string{"suite", "gen", "serve"} {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				t.Parallel()
				o := options{workload: w, seed: 1, trace: trace, spans: filepath.Join(t.TempDir(), "spans.jsonl")}
				res, err := run(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
				if trace {
					want = layerApplies[w]
					if _, err := os.Stat(o.spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
				for _, name := range want {
					if v := res.Metrics[name].Value; v <= 0 {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	// Ten samples (31..40) lie beyond the 30th.
	if got := tail(xs); got != 30 {
		t.Errorf("tail of 1..40 = %v, want 30", got)
	}
	if got := tail(xs[:5]); got != median(xs[:5]) {
		t.Errorf("tail of 5 samples = %v, want the median %v", got, median(xs[:5]))
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "pass", StartUS: 0, EndUS: 10000},
		{ID: 2, Parent: 1, Name: "a", StartUS: 1000, EndUS: 5000},
		{ID: 3, Parent: 1, Name: "a", StartUS: 3000, EndUS: 6000}, // overlaps the first
		{ID: 4, Parent: 3, Name: "b", StartUS: 3000, EndUS: 4000},
	}}
	self := tr.selfMS()
	if self["pass"] != 5 || self["a"] != 6 || self["b"] != 1 {
		t.Errorf("self times = %v, want pass 5, a 6, b 1", self)
	}
}
