package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"os"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/check"
	"repro/internal/modref"
	"repro/internal/oracle"
	"repro/internal/pta"
	"repro/internal/pta/loc"
	"repro/internal/pta/ptset"
	"repro/internal/ptagen"
	"repro/internal/race"
	"repro/internal/report"
	"repro/internal/simple"
	"repro/internal/simplify"
	"repro/internal/taint"
	"repro/pointsto"
)

// input is one C program.
type input struct {
	name string
	src  string
}

func (in input) filename() string { return in.name + ".c" }

// libWorkload runs verdicts through the library facade, one program after
// another, as mccat-pta -check -race -taint does.
type libWorkload struct {
	seed   int64
	load   func() []input
	props  func(in input, a *pointsto.Analysis) error // properties the method must have
	inputs []input
	order  []int
}

func newSuite(seed int64) *libWorkload {
	return &libWorkload{seed: seed, load: suiteInputs, props: suiteProps}
}

func newGen(seed int64) *libWorkload {
	return &libWorkload{seed: seed, load: genInputs, props: genProps}
}

// suiteInputs is the paper's evaluation set: the 17 Table 2 programs and
// livc.
func suiteInputs() []input {
	var ins []input
	for _, name := range bench.Names() {
		src, err := bench.Source(name)
		if err != nil {
			panic(err) // the programs are embedded in the binary
		}
		ins = append(ins, input{name, src})
	}
	return ins
}

// genDials is the one dial set of the gen workload: function-pointer
// dispatch, recursion, heap churn and two pthread spawns all on.
var genDials = ptagen.Config{Depth: 3, Width: 2, StmtsPerFunc: 16, FnPtrDensity: 0.25,
	Recursion: 0.15, HeapChurn: 0.2, StructDepth: 2, Threads: 2}

// genSeeds are the ptagen seeds of the gen programs. They are fixed rather
// than drawn from the workload seed, because the analysis cost of a
// generated program varies several-fold between ptagen seeds and would
// swamp the run-to-run spread.
var genSeeds = []int64{3, 7, 11}

func genInputs() []input {
	return generate(genDials, genSeeds)
}

func generate(dials ptagen.Config, seeds []int64) []input {
	var ins []input
	for _, s := range seeds {
		cfg := dials
		cfg.Seed = s
		src, meta := ptagen.Generate(cfg)
		ins = append(ins, input{meta.Name, src})
	}
	return ins
}

func (w *libWorkload) setup() error {
	w.inputs = w.load()
	w.order = order(w.seed, len(w.inputs))
	return nil
}

func (w *libWorkload) close()                    {}
func (w *libWorkload) serverStats() *serverStats { return nil }

func (w *libWorkload) pass(tr *tracer, parent int) []verdictOut {
	outs := make([]verdictOut, 0, len(w.order))
	for _, i := range w.order {
		vid := tr.verdictID()
		d, _, err := verdict(tr, parent, vid, w.inputs[i])
		outs = append(outs, verdictOut{input: i, digest: d, err: err})
	}
	return outs
}

// verdict takes one program from source to its check, race and taint
// reports, rendered as mccat-pta renders them into a digest. facadeMS is
// the time spent in the four public calls (0 when untraced).
func verdict(tr *tracer, parent, vid int, in input) (digest uint64, facadeMS float64, err error) {
	h := fnv.New64a()
	var a *pointsto.Analysis
	facadeMS += tr.call("pointsto.AnalyzeSource", parent, vid, func() {
		a, err = pointsto.AnalyzeSource(in.filename(), in.src, nil)
	})
	if err != nil {
		return 0, 0, err
	}
	var cd []check.Diag
	facadeMS += tr.call("Analysis.Check", parent, vid, func() { cd, err = a.Check() })
	if err != nil {
		return 0, 0, err
	}
	var rd []race.Diag
	facadeMS += tr.call("Analysis.Races", parent, vid, func() { rd, err = a.Races() })
	if err != nil {
		return 0, 0, err
	}
	var td []taint.Diag
	facadeMS += tr.call("Analysis.Taint", parent, vid, func() { td, err = a.Taint() })
	if err != nil {
		return 0, 0, err
	}
	tr.call("report", parent, vid, func() { render(h, cd, rd, td) })
	return h.Sum64(), facadeMS, nil
}

func render(h hash.Hash64, cd []check.Diag, rd []race.Diag, td []taint.Diag) {
	report.WriteDiags(h, cd)
	report.WriteDiagSummary(h, cd)
	report.WriteRaceDiags(h, rd)
	report.WriteRaceDiagSummary(h, rd)
	report.WriteTaintDiags(h, td)
	report.WriteTaintDiagSummary(h, td)
}

func (w *libWorkload) breakdown(tr *tracer, parent int, led *ledger) ([]verdictOut, error) {
	outs := make([]verdictOut, 0, len(w.order))
	for _, i := range w.order {
		in := w.inputs[i]
		vid := tr.verdictID()
		vspan, end := tr.begin("verdict", parent, vid)
		d, facade, err := verdict(tr, vspan, vid, in)
		outs = append(outs, verdictOut{input: i, digest: d, err: err})
		if err == nil {
			layers, err := verdictLayers(tr, vspan, vid, in, led, false, "check", "race", "taint")
			if err != nil {
				return nil, fmt.Errorf("%s: %w", in.name, err)
			}
			led.rerunMS += facade - layers
			led.verdicts++
		}
		end()
	}
	return outs, nil
}

// verdictLayers splits one verdict into single calls of its layers: parse,
// simplify, one engine run, the fingerprint if asked for, and the named
// clients. It returns the summed layer time.
func verdictLayers(tr *tracer, parent, vid int, in input, led *ledger, fingerprint bool, clientNames ...string) (float64, error) {
	prog, ms, err := frontend(tr, parent, vid, in, led)
	if err != nil {
		return 0, err
	}
	res, engine, err := analyze(tr, parent, vid, prog, led)
	if err != nil {
		return 0, err
	}
	ms += engine
	if fingerprint {
		ms += tr.call("pta.Fingerprint", parent, vid, func() { pta.Fingerprint(res) })
	}
	cl, err := clients(tr, parent, vid, res, in.src, led, clientNames...)
	return ms + cl, err
}

// frontend times the parser and the simplifier on one program.
func frontend(tr *tracer, parent, vid int, in input, led *ledger) (*simple.Program, float64, error) {
	var tu *ast.TranslationUnit
	var prog *simple.Program
	var err error
	ms := tr.call("parser.Parse", parent, vid, func() { tu, err = parser.Parse(in.filename(), in.src) })
	if err != nil {
		return nil, 0, err
	}
	ms += tr.call("simplify.Simplify", parent, vid, func() { prog, err = simplify.Simplify(tu) })
	if err != nil {
		return nil, 0, err
	}
	led.srcKB += float64(len(in.src)) / 1024
	prog.ForEachBasic(func(*simple.Basic) { led.basics++ })
	return prog, ms, nil
}

// analyze times one exhaustive engine run with per-context annotations,
// which is what the clients need, and records its counts.
func analyze(tr *tracer, parent, vid int, prog *simple.Program, led *ledger) (*pta.Result, float64, error) {
	var res *pta.Result
	var err error
	r0 := readRuntime()
	ms := tr.call("pta.Analyze", parent, vid, func() {
		res, err = pta.Analyze(prog, pta.Options{RecordContexts: true})
	})
	led.ptaAllocMB += (readRuntime().allocBytes - r0.allocBytes) / 1e6
	if err != nil {
		return nil, 0, err
	}
	m := res.Metrics
	led.steps += float64(m.Steps)
	led.nodeEvals += float64(m.NodeEvals)
	led.memoHits += float64(m.MemoHits)
	led.memoLookups += float64(m.MemoHits + m.MemoMisses)
	led.distinct += float64(m.InternDistinct)
	led.peakSet += float64(m.PeakSet)
	led.facts += float64(res.Annots.TotalFacts())
	return res, ms, nil
}

// clients times the named clients over one engine result.
func clients(tr *tracer, parent, vid int, res *pta.Result, src string, led *ledger, names ...string) (float64, error) {
	var ms float64
	var err error
	for _, name := range names {
		switch name {
		case "check":
			var ds []check.Diag
			ms += tr.call("check.Run", parent, vid, func() { ds, err = check.Run(res) })
			led.checkDiags += float64(len(ds))
		case "race":
			var mr *modref.Result
			ms += tr.call("modref.Compute", parent, vid, func() { mr = modref.Compute(res) })
			var ds []race.Diag
			ms += tr.call("race.Run", parent, vid, func() { ds, err = race.Run(res, mr) })
			led.raceDiags += float64(len(ds))
		case "taint":
			cfg := taint.DefaultConfig()
			cfg.AddSanitizers(taint.PragmaSanitizers(src)...)
			var ds []taint.Diag
			ms += tr.call("taint.Run", parent, vid, func() { ds, err = taint.Run(res, cfg) })
			led.taintDiags += float64(len(ds))
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return ms, nil
}

// check re-runs every input once, checks the result for the properties
// the method must have, and compares each recorded verdict with it.
func (w *libWorkload) check(outs []verdictOut) (int, error) {
	want := make([]uint64, len(w.inputs))
	bad := make([]bool, len(w.inputs))
	for i, in := range w.inputs {
		a, err := pointsto.AnalyzeSource(in.filename(), in.src, nil)
		if err == nil {
			err = w.props(in, a)
		}
		if err == nil {
			want[i], _, err = verdict(nil, 0, 0, in)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", in.name, err)
			bad[i] = true
		}
	}
	failed := 0
	for _, o := range outs {
		switch {
		case o.err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.inputs[o.input].name, o.err)
		case bad[o.input]:
		case o.digest != want[o.input]:
			fmt.Fprintf(os.Stderr, "perfbench: %s: report differs from the checked run\n", w.inputs[o.input].name)
		default:
			continue
		}
		failed++
	}
	return failed, nil
}

// suiteProps checks one suite program: sound against the interpreter
// oracle (paper Definition 3.3), contained in Andersen's solution, and for
// livc the invocation-graph sizes ordered precise <= address-taken <= all.
func suiteProps(in input, a *pointsto.Analysis) error {
	if err := oracle.RunAndCheck(a.Result, a.Program, 0); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := andersenContains(a.Result); err != nil {
		return err
	}
	if in.name != bench.Livc.Name {
		return nil
	}
	sz, err := baseline.CompareFnPtrStrategies(a.Program)
	if err != nil {
		return err
	}
	if !(sz.Precise.Nodes <= sz.AddrTaken.Nodes && sz.AddrTaken.Nodes <= sz.AllFuncs.Nodes) {
		return fmt.Errorf("invocation-graph nodes precise %d, address-taken %d, all %d: not ordered",
			sz.Precise.Nodes, sz.AddrTaken.Nodes, sz.AllFuncs.Nodes)
	}
	return nil
}

// genProps checks one generated program: contained in Andersen's solution,
// and the same fingerprint at one worker and at the default worker count.
func genProps(in input, a *pointsto.Analysis) error {
	if err := andersenContains(a.Result); err != nil {
		return err
	}
	serial, err := pta.Analyze(a.Program, pta.Options{Workers: 1})
	if err != nil {
		return err
	}
	if pta.Fingerprint(serial) != pta.Fingerprint(a.Result) {
		return fmt.Errorf("fingerprint at 1 worker differs from %d workers", a.Result.Workers)
	}
	return nil
}

// andersenContains checks that every fact at every statement, and at the
// exit of main, is in the flow- and context-insensitive Andersen solution,
// over the location kinds both analyses express.
func andersenContains(res *pta.Result) error {
	and := baseline.Andersen(res.Prog)
	have := make(map[[2]string]bool, and.Sol.Len())
	and.Sol.Range(func(t ptset.Triple) { have[[2]string{t.Src.SortKey(), t.Dst.SortKey()}] = true })
	var missing error
	contained := func(s ptset.Set) {
		s.Range(func(t ptset.Triple) {
			if missing != nil || !comparableKind(t.Src.Kind) || !comparableKind(t.Dst.Kind) {
				return
			}
			if !have[[2]string{t.Src.SortKey(), t.Dst.SortKey()}] {
				missing = fmt.Errorf("fact %s -> %s is not in the Andersen solution", t.Src.Name(), t.Dst.Name())
			}
		})
	}
	res.Prog.ForEachBasic(func(b *simple.Basic) {
		if s, ok := res.Annots.At(b); ok {
			contained(s)
		}
	})
	contained(res.MainOut)
	return missing
}

func comparableKind(k loc.Kind) bool {
	switch k {
	case loc.Var, loc.Heap, loc.Str, loc.Func:
		return true
	}
	return false
}
