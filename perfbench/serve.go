package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cc/ast"
	"repro/internal/cc/parser"
	"repro/internal/pta"
	"repro/internal/pta/live"
	"repro/internal/pta/loc"
	"repro/internal/ptagen"
	"repro/internal/server"
	"repro/internal/simple"
	"repro/internal/simplify"
	"repro/pointsto"
)

// serveSuite is the suite part of the serve corpus: every suite program
// but the four cheapest (compress, fixoutput, hash, mway), so that with
// the two generated programs the corpus fits the server's parse cache of
// 16 sources and every query request after the warm-up pass hits it.
var serveSuite = []string{"genetic", "dry", "clinpack", "config", "toplev", "misr", "xref",
	"stanford", "sim", "travel", "csuite", "msc", "lws", "livc"}

// serveGenDials and serveGenSeeds make the small generated programs of the
// serve corpus.
var (
	serveGenDials = ptagen.Config{Depth: 2, Width: 2, StmtsPerFunc: 12, FnPtrDensity: 0.25,
		Recursion: 0.15, HeapChurn: 0.2, StructDepth: 2, Threads: 2}
	serveGenSeeds = []int64{1, 2}
)

// serveViews are the analysis views. In a pass source i is asked for
// view i mod 4, so that every view is asked for equally often, and for one
// batch of queries.
var serveViews = [4]string{"analyze", "check", "race", "taint"}

const queriesPerBatch = 3

// request is one HTTP request of the serve sequence.
type request struct {
	src     int
	view    string // analyze, check, race, taint or query
	queries []pointsto.Query
	body    []byte
}

// serveWorkload drives pta-server over loopback with closed-loop clients.
type serveWorkload struct {
	seed    int64
	sources []input
	progs   []*simple.Program
	reqs    []request // one pass, in the seeded order

	srv    *server.Server
	spool  string
	base   string
	client *http.Client

	mu    sync.Mutex
	stats *serverStats
}

// serverStats is what the clients measure of the server in traced passes.
type serverStats struct {
	requests   int
	respBytes  float64
	overheadMS []float64 // HTTP latency minus the response's duration_ms
	queryMS    []float64 // HTTP latency of /v1/query requests
	cacheHits  int
}

func newServe(seed int64) *serveWorkload { return &serveWorkload{seed: seed} }

func (w *serveWorkload) setup() error {
	w.close()
	w.sources, w.progs, w.reqs = nil, nil, nil
	for _, name := range serveSuite {
		src, err := bench.Source(name)
		if err != nil {
			return err
		}
		w.sources = append(w.sources, input{name, src})
	}
	w.sources = append(w.sources, generate(serveGenDials, serveGenSeeds)...)
	rng := rand.New(rand.NewSource(w.seed))
	for i, in := range w.sources {
		tu, err := parser.Parse(in.filename(), in.src)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		prog, err := simplify.Simplify(tu)
		if err != nil {
			return fmt.Errorf("%s: %w", in.name, err)
		}
		w.progs = append(w.progs, prog)
		cands := queryCandidates(prog, in.filename())
		if len(cands) == 0 {
			return fmt.Errorf("%s: no statement to query", in.name)
		}
		q := request{src: i, view: "query"}
		for len(q.queries) < queriesPerBatch {
			q.queries = append(q.queries, cands[rng.Intn(len(cands))])
		}
		w.reqs = append(w.reqs, request{src: i, view: serveViews[i%len(serveViews)]}, q)
	}
	// The seed shuffles the requests; then the largest sources go first, so
	// that the two clients finish a pass together instead of one idling
	// while the other serves livc. Without this the pass time depended on
	// where the seed put livc's requests.
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	sort.SliceStable(w.reqs, func(i, j int) bool {
		return len(w.sources[w.reqs[i].src].src) > len(w.sources[w.reqs[j].src].src)
	})
	for i := range w.reqs {
		r := &w.reqs[i]
		in := w.sources[r.src]
		var body any = server.AnalyzeRequest{Filename: in.filename(), Source: in.src}
		if r.view == "query" {
			body = server.QueryRequest{Filename: in.filename(), Source: in.src, Queries: r.queries}
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return w.start()
}

// queryCandidates lists a query for every statement that assigns a
// pointer variable, asking for that variable's targets there.
func queryCandidates(prog *simple.Program, filename string) []pointsto.Query {
	var out []pointsto.Query
	for _, f := range prog.Functions {
		simple.WalkStmts(f.Body, func(s simple.Stmt) {
			b, ok := s.(*simple.Basic)
			if !ok || b.LHS == nil || b.LHS.Deref || b.Pos.File != filename {
				return
			}
			v := b.LHS.Var
			if v.Type == nil || !v.Type.IsPointerLike() || !inScope(f, v) {
				return
			}
			out = append(out, pointsto.Query{Pos: fmt.Sprintf("%s:%d", filename, b.Pos.Line), Var: v.Name})
		})
	}
	return out
}

// inScope reports whether a query naming v in f resolves to v: parameters
// and locals come before globals.
func inScope(f *simple.Function, v *ast.Object) bool {
	for _, objs := range [][]*ast.Object{f.Params, f.Locals} {
		for _, o := range objs {
			if o.Name == v.Name {
				return o == v
			}
		}
	}
	return v.Global
}

// start launches the server on loopback and waits until it is ready.
func (w *serveWorkload) start() error {
	spool, err := os.MkdirTemp("", "perfbench-spool-")
	if err != nil {
		return err
	}
	w.spool = spool
	w.srv, err = server.New(server.Config{SpoolDir: spool})
	if err != nil {
		return err
	}
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + addr.String()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: procs},
		Timeout:   time.Minute,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := w.srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
		cancel()
		w.client.CloseIdleConnections()
		w.srv = nil
	}
	if w.spool != "" {
		os.RemoveAll(w.spool)
		w.spool = ""
	}
}

// pass replays the request sequence once with closed-loop clients, each
// sending its next request when the previous one is answered.
func (w *serveWorkload) pass(tr *tracer, parent int) []verdictOut {
	outs := make([]verdictOut, len(w.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.reqs) {
					return
				}
				outs[i], _ = w.do(tr, parent, tr.verdictID(), i, tr != nil)
			}
		}()
	}
	wg.Wait()
	return outs
}

// response holds the fields of a /v1 response the benchmark checks.
type response struct {
	DurationMS  float64                `json:"duration_ms"`
	Fingerprint string                 `json:"fingerprint_sha256"`
	PointsTo    []triple               `json:"points_to"`
	Findings    []finding              `json:"findings"`
	CacheHit    bool                   `json:"cache_hit"`
	Results     []pointsto.QueryResult `json:"results"`
	Error       string                 `json:"error"`
}

type triple struct {
	Src      string `json:"src"`
	Dst      string `json:"dst"`
	Definite bool   `json:"definite"`
}

type finding struct {
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// digest hashes the checked fields of a response.
func (r *response) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n", r.Fingerprint)
	for _, t := range r.PointsTo {
		fmt.Fprintf(h, "%s %s %v\n", t.Src, t.Dst, t.Definite)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(h, "%s %s\n", f.Severity, f.Message)
	}
	for _, q := range r.Results {
		fmt.Fprintf(h, "%s %s %v %s\n", q.Pos, q.Var, q.Targets, q.Err)
	}
	return h.Sum64()
}

// do sends request i and waits for its answer. It returns the verdict and
// the server's own duration_ms. With collect it records what it measured
// of the server.
func (w *serveWorkload) do(tr *tracer, parent, vid, i int, collect bool) (verdictOut, float64) {
	r := &w.reqs[i]
	out := verdictOut{input: i}
	path := "/v1/" + r.view
	_, end := tr.begin("POST "+path, parent, vid)
	start := time.Now()
	hr, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		end()
		out.err = err
		return out, 0
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	latency := float64(time.Since(start)) / float64(time.Millisecond)
	end()
	if err != nil {
		out.err = err
		return out, 0
	}
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		out.err = fmt.Errorf("%s: %w", path, err)
		return out, 0
	}
	if hr.StatusCode != http.StatusOK || resp.Error != "" {
		out.err = fmt.Errorf("%s: status %d: %s", path, hr.StatusCode, resp.Error)
		return out, resp.DurationMS
	}
	out.digest = resp.digest()
	if collect {
		w.mu.Lock()
		if w.stats == nil {
			w.stats = &serverStats{}
		}
		s := w.stats
		s.requests++
		s.respBytes += float64(len(body))
		s.overheadMS = append(s.overheadMS, latency-resp.DurationMS)
		if r.view == "query" {
			s.queryMS = append(s.queryMS, latency)
			if resp.CacheHit {
				s.cacheHits++
			}
		}
		w.mu.Unlock()
	}
	return out, resp.DurationMS
}

func (w *serveWorkload) serverStats() *serverStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	w.stats = nil
	return s
}

// breakdown sends the sequence from one client and splits each request
// into the layer calls the server makes for it.
func (w *serveWorkload) breakdown(tr *tracer, parent int, led *ledger) ([]verdictOut, error) {
	outs := make([]verdictOut, 0, len(w.reqs))
	for i := range w.reqs {
		r := &w.reqs[i]
		vid := tr.verdictID()
		vspan, end := tr.begin("verdict", parent, vid)
		out, durMS := w.do(tr, vspan, vid, i, false)
		outs = append(outs, out)
		var err error
		if r.view == "query" {
			err = w.queryLayers(tr, vspan, vid, r, led)
		} else {
			var ms float64
			ms, err = verdictLayers(tr, vspan, vid, w.sources[r.src], led, true, r.view)
			led.rerunMS += durMS - ms
		}
		led.verdicts++
		end()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", r.view, w.sources[r.src].name, err)
		}
	}
	return outs, nil
}

// queryLayers is a query batch on a parse-cache hit: liveness from the
// queries' seeds, then the demand-mode engine run (which computes the
// liveness again inside).
func (w *serveWorkload) queryLayers(tr *tracer, parent, vid int, r *request, led *ledger) error {
	prog := w.progs[r.src]
	var a *pointsto.Analysis
	var err error
	tr.call("seeds", parent, vid, func() {
		a, err = pointsto.AnalyzeProgram(prog, &pointsto.Config{Demand: true, Queries: r.queries})
	})
	if err != nil {
		return err
	}
	seeds := a.Result.Live.Seeds()
	tr.call("live.Compute", parent, vid, func() { live.Compute(prog, seeds, live.Options{}) })
	var res *pta.Result
	tr.call("pta.Analyze[demand]", parent, vid, func() {
		res, err = pta.Analyze(prog, pta.Options{Demand: seeds})
	})
	if err != nil {
		return err
	}
	led.factsPruned += float64(res.Metrics.FactsPruned)
	return nil
}

// check compares every response with an in-process library run on the
// same source: the fingerprint and findings of the analysis views, and
// for each query batch the answers of an exhaustive run.
func (w *serveWorkload) check(outs []verdictOut) (int, error) {
	analyses := make([]*pointsto.Analysis, len(w.sources))
	for i, in := range w.sources {
		a, err := pointsto.AnalyzeSource(in.filename(), in.src, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.name, err)
		}
		analyses[i] = a
	}
	want := make([]uint64, len(w.reqs))
	for i := range w.reqs {
		exp, err := expected(analyses[w.reqs[i].src], &w.reqs[i])
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.sources[w.reqs[i].src].name, err)
		}
		want[i] = exp.digest()
	}
	failed := 0
	for _, o := range outs {
		r := &w.reqs[o.input]
		switch {
		case o.err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: %v\n", r.view, w.sources[r.src].name, o.err)
		case o.digest != want[o.input]:
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: response differs from the library run\n", r.view, w.sources[r.src].name)
		default:
			continue
		}
		failed++
	}
	return failed, nil
}

// expected is the response the library gives for request r.
func expected(a *pointsto.Analysis, r *request) (*response, error) {
	var exp response
	if r.view == "query" {
		exp.Results = a.QueryAll(r.queries)
		return &exp, nil
	}
	sum := sha256.Sum256([]byte(pta.Fingerprint(a.Result)))
	exp.Fingerprint = hex.EncodeToString(sum[:])
	add := func(sev, msg string) {
		exp.Findings = append(exp.Findings, finding{sev, msg})
	}
	switch r.view {
	case "analyze":
		for _, t := range a.Result.MainOut.Triples() {
			if t.Dst.Kind != loc.Null {
				exp.PointsTo = append(exp.PointsTo, triple{t.Src.Name(), t.Dst.Name(), bool(t.Def)})
			}
		}
	case "check":
		ds, err := a.Check()
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			add(d.Sev.String(), d.String())
		}
	case "race":
		ds, err := a.Races()
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			add(d.Sev.String(), d.String())
		}
	case "taint":
		ds, err := a.Taint()
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			add(d.Sev.String(), d.String())
		}
	}
	return &exp, nil
}
