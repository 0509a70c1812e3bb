package main

import (
	"fmt"
	"math/rand"
)

// workload is one set of inputs and the verdicts run over them.
type workload interface {
	// setup loads or generates the inputs and starts what serves them. A
	// run calls it several times; each call replaces the previous state.
	setup() error
	// pass runs every input once, in the order the seed fixed. tr is nil
	// in the untraced run; spans it records hang under parent.
	pass(tr *tracer, parent int) []verdictOut
	// breakdown runs one pass in which each verdict is also split into the
	// layer entry points, adding the counts to led.
	breakdown(tr *tracer, parent int, led *ledger) ([]verdictOut, error)
	// serverStats returns what the clients measured of the server during
	// traced passes (nil for the library workloads).
	serverStats() *serverStats
	// check verifies the recorded outputs and returns how many verdicts
	// failed. It runs outside the timed region.
	check(outs []verdictOut) (failed int, err error)
	close()
}

// verdictOut is what a verdict leaves for the checks: which input it ran
// and a digest of its output.
type verdictOut struct {
	input  int
	digest uint64
	err    error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "suite":
		return newSuite(seed), nil
	case "gen":
		return newGen(seed), nil
	case "serve":
		return newServe(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite, gen or serve)", name)
}

// order returns the seeded order in which a pass visits n inputs.
func order(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// ledger accumulates the per-verdict layer figures of the breakdown.
type ledger struct {
	verdicts    int
	srcKB       float64
	basics      float64
	ptaAllocMB  float64
	steps       float64
	nodeEvals   float64
	memoHits    float64
	memoLookups float64
	distinct    float64
	peakSet     float64
	facts       float64
	factsPruned float64
	rerunMS     float64
	checkDiags  float64
	raceDiags   float64
	taintDiags  float64
	server      *serverStats
}

// layerSpans maps each per-layer time metric to the span recorded around
// the layer's entry point.
var layerSpans = map[string]string{
	"cc.parse_ms":        "parser.Parse",
	"simplify.ms":        "simplify.Simplify",
	"pta.ms":             "pta.Analyze",
	"pta.fingerprint_ms": "pta.Fingerprint",
	"live.ms":            "live.Compute",
	"pta.demand_ms":      "pta.Analyze[demand]",
	"check.ms":           "check.Run",
	"modref.ms":          "modref.Compute",
	"race.ms":            "race.Run",
	"taint.ms":           "taint.Run",
}

// metrics renders the ledger per verdict, with layer times taken as self
// times from the spans.
func (l *ledger) metrics(self map[string]float64) map[string]metric {
	n := float64(l.verdicts)
	per := func(x float64) float64 { return x / n }
	m := map[string]metric{
		"cc.src_kb":              {per(l.srcKB), "KB"},
		"simplify.basics":        {per(l.basics), "count"},
		"pta.alloc_mb":           {per(l.ptaAllocMB), "MB"},
		"pta.steps":              {per(l.steps), "count"},
		"pta.node_evals":         {per(l.nodeEvals), "count"},
		"pta.memo_hit_rate":      {ratio(l.memoHits, l.memoLookups), "ratio"},
		"pta.distinct_sets":      {per(l.distinct), "count"},
		"pta.peak_set":           {per(l.peakSet), "count"},
		"pta.facts":              {per(l.facts), "count"},
		"pta.facts_pruned":       {per(l.factsPruned), "count"},
		"pointsto.rerun_ms":      {per(l.rerunMS), "ms"},
		"check.diags":            {per(l.checkDiags), "count"},
		"race.diags":             {per(l.raceDiags), "count"},
		"taint.diags":            {per(l.taintDiags), "count"},
		"server.overhead_ms_p50": {0, "ms"},
		"server.query_ms_p50":    {0, "ms"},
		"server.resp_kb":         {0, "KB"},
		"server.cache_hit_rate":  {0, "ratio"},
	}
	for name, sp := range layerSpans {
		m[name] = metric{per(self[sp]), "ms"}
	}
	if s := l.server; s != nil {
		m["server.overhead_ms_p50"] = metric{median(s.overheadMS), "ms"}
		m["server.query_ms_p50"] = metric{median(s.queryMS), "ms"}
		m["server.resp_kb"] = metric{ratio(s.respBytes/1024, float64(s.requests)), "KB"}
		m["server.cache_hit_rate"] = metric{ratio(float64(s.cacheHits), float64(len(s.queryMS))), "ratio"}
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
