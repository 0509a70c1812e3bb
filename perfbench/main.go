// Command perfbench is the repository's benchmark: it takes C programs from
// source bytes to their check, race and taint verdicts through the public
// calls users make (pointsto.AnalyzeSource and the Analysis clients, or
// pta-server's HTTP API), checks every output, and prints one JSON result
// line with the end-to-end metrics (untraced run) or the per-layer ledger
// (traced run).
//
//	perfbench --workload suite|gen|serve --seed N --seconds S --trace 0|1
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRounds is how many times a run sets its workload up; setup_s is
// the median.
const setupRounds = 3

// procs is GOMAXPROCS and the serve client count: two, or fewer on a
// smaller machine.
var procs = min(2, runtime.NumCPU())

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where the traced run writes its spans
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "suite, gen or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured run in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer ledger")
	fs.StringVar(&o.spans, "spans", "", "span file of the traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed))
	}
	runtime.GOMAXPROCS(procs)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, measures it and checks its outputs.
func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Set-up is repeated so its median is steady; the last one serves the
	// measured run. The warm-up pass's verdicts are not counted.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		w.pass(nil, 0)
		setups = append(setups, time.Since(start).Seconds())
	}
	if o.trace {
		return traced(o, w)
	}

	var passMS []float64
	var outs []verdictOut
	r0 := readRuntime()
	start := time.Now()
	for len(passMS) == 0 || time.Since(start).Seconds() < o.seconds {
		t := time.Now()
		po := w.pass(nil, 0)
		passMS = append(passMS, float64(time.Since(t))/float64(time.Millisecond))
		outs = append(outs, po...)
	}
	elapsed := time.Since(start).Seconds()
	rt := readRuntime().sub(r0)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	failed, err := w.check(outs)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	n := float64(len(outs))
	return &result{
		Correct:   true,
		Attempted: len(outs),
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"pass_ms_p50":          {median(passMS), "ms"},
			"pass_ms_tail":         {tail(passMS), "ms"},
			"verdicts_per_s":       {n / elapsed, "1/s"},
			"alloc_mb_per_verdict": {rt.allocBytes / n / 1e6, "MB"},
			"peak_rss_mb":          {rss, "MB"},
		},
	}, nil
}

// traced is the traced run. Its first half replays the timed path with a
// span around every public call, which gives the tracing overhead against
// the untraced run, the GC figures and the server's figures. Its second
// half splits every verdict into the layer entry points.
func traced(o options, w workload) (*result, error) {
	tr := newTracer()
	led := &ledger{}
	var passMS []float64
	var outs []verdictOut
	half := o.seconds / 2

	r0 := readRuntime()
	start := time.Now()
	for len(passMS) == 0 || time.Since(start).Seconds() < half {
		id, end := tr.begin("pass", 0, 0)
		po := w.pass(tr, id)
		passMS = append(passMS, end())
		outs = append(outs, po...)
	}
	rt := readRuntime().sub(r0)
	timedVerdicts := float64(len(outs))
	led.server = w.serverStats()

	start = time.Now()
	for passes := 0; passes == 0 || time.Since(start).Seconds() < half; passes++ {
		id, end := tr.begin("breakdown", 0, 0)
		po, err := w.breakdown(tr, id, led)
		end()
		if err != nil {
			return nil, err
		}
		outs = append(outs, po...)
	}
	failed, err := w.check(outs)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if err := tr.write(o.spans); err != nil {
		return nil, err
	}
	m := led.metrics(tr.selfMS())
	m["gc.cpu_ms"] = metric{rt.gcCPUSec * 1000 / timedVerdicts, "ms"}
	m["gc.cycles"] = metric{rt.gcCycles / timedVerdicts, "count"}
	m["trace.pass_ms_p50"] = metric{median(passMS), "ms"}
	return &result{Correct: true, Attempted: len(outs), Failed: failed, Metrics: m}, nil
}
