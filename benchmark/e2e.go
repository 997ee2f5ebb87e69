package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// runConfig is what the flags decide for one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phases
	smoke   bool
}

// wireConns is the wire workload's caller count: one keep-alive TCP
// connection and one tenant each.
const wireConns = 2

// prefix is how many of a measured phase's queries keep their answers.
func (c runConfig) prefix(w *workload) int {
	if c.smoke {
		return w.smokeN
	}
	return w.prefix
}

// measured sizes a phase that takes share of --seconds (a fixed count
// under -smoke) and keeps the answers of its first prefix queries.
func (c runConfig) measured(w *workload, share float64, prefix int) (limit, buffers) {
	if c.smoke {
		return limit{minCount: w.smokeN}, buffers{lats: w.smokeN, outs: prefix}
	}
	dur := share * c.seconds
	return limit{dur: time.Duration(dur * float64(time.Second)), minCount: prefix},
		buffers{lats: max(int(dur*float64(w.maxQPS)), prefix) + wireConns, outs: prefix}
}

func (c runConfig) warmup(w *workload) int {
	if c.smoke {
		return w.smokeN / 20 // the first 5% are untimed
	}
	return w.warmup
}

// setupReps is how often a run sets up; setup_s is the median. One
// set-up takes 2–4 ms and allocates just over the collector's 4 MB
// floor, so a cycle starts somewhere inside most set-ups and a single
// reading lies anywhere between 1.8 and 3 ms. Each starts from a
// collected heap, as a fresh process's does: otherwise every second or
// third set-up pays for collecting its predecessors. The median of 101
// still moved by ±10 % from process to process, the median of 401 by
// ±4 %, for about 2 s of a run.
const setupReps = 401

// check is one correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func (c check) String() string {
	verdict := "ok  "
	if !c.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-28s %s", verdict, c.Name, c.Detail)
}

func allOK(cs []check) bool {
	for _, c := range cs {
		if !c.OK {
			return false
		}
	}
	return true
}

// e2eResult is one untraced run of one workload.
type e2eResult struct {
	Workload  string            `json:"workload"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Digest    string            `json:"result_digest"`
	// Prefix is how many leading timed queries the digest, the
	// simulated-clock metrics and the checks cover.
	Prefix       int                `json:"prefix_queries"`
	TimedSeconds float64            `json:"timed_seconds"`
	ShapeP50     map[string]float64 `json:"shape_p50_us"`
	Checks       []check            `json:"checks"`
}

// target bundles a dataset with the surface its workload is timed on.
type target struct {
	d   *dataset
	svc *service // nil for in-process workloads
}

func (t *target) callers() int {
	if t.svc != nil {
		return len(t.svc.clients)
	}
	return 1
}

func (t *target) do(caller, i int) (outcome, wireTiming, error) {
	if t.svc != nil {
		return t.svc.query(caller, i)
	}
	out, err := t.d.estimate(i)
	return out, wireTiming{}, err
}

func (t *target) stop() {
	if t.svc != nil {
		t.svc.stop()
	}
}

// setUp opens the DB, generates the relations and, for a wire workload,
// starts the loopback server and opens its connections — everything a
// user waits for before the first query can be sent.
func setUp(w *workload, cfg runConfig) (*target, error) {
	if !w.wire {
		d, err := w.open(cfg.seed)
		return &target{d: d}, err
	}
	d, err := w.open(cfg.seed, serviceOptions()...)
	if err != nil {
		return nil, err
	}
	svc, err := startService(d)
	if err != nil {
		return nil, err
	}
	return &target{d: d, svc: svc}, nil
}

// timedSetUp sets up reps times and returns the last target with the
// median set-up time in seconds.
func timedSetUp(w *workload, cfg runConfig, reps int) (*target, float64, error) {
	var t *target
	var secs []float64
	for r := 0; r < reps; r++ {
		if t != nil {
			t.stop()
			t = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if t, err = setUp(w, cfg); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return t, median(secs), nil
}

// runEndToEnd measures one workload with tracing off, through its
// public surface only, and runs the correctness checks that need no
// trace.
func runEndToEnd(w *workload, cfg runConfig) (*e2eResult, error) {
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	t, setupS, err := timedSetUp(w, cfg, reps)
	if err != nil {
		return nil, err
	}
	defer t.stop()
	if err := t.d.checkTruths(); err != nil {
		return nil, err
	}

	lim, buf := cfg.measured(w, 1, cfg.prefix(w))
	p := warmAndRun(t, cfg.warmup(w), lim, buf)

	res := &e2eResult{
		Workload:     w.name,
		Attempted:    len(p.lats),
		Failed:       p.failed,
		Digest:       resultDigest(p.first, p.outs),
		Prefix:       len(p.outs),
		TimedSeconds: p.wall.Seconds(),
		ShapeP50:     shapeP50(w, &p),
	}
	if res.Metrics = endToEnd(w, &p); res.Metrics == nil {
		return nil, fmt.Errorf("%s: no query succeeded (%d failed)", w.name, res.Failed)
	}
	res.Metrics["setup_s"] = metric{setupS, "s"}

	res.Checks = append(res.Checks, check{
		Name: "no-failures", OK: res.Failed == 0,
		Detail: fmt.Sprintf("%d of %d queries failed, were rejected or ended without a result", res.Failed, res.Attempted),
	})
	if res.Failed > 0 {
		return res, nil // the checks below assume every query was answered
	}
	if t.svc != nil {
		res.Checks = append(res.Checks, checkReadOnlyObservers(w, cfg, t.svc, &p)...)
	}
	if w.name == "paper-mix" {
		res.Checks = append(res.Checks, checkPaperAnchors(w, &p)...)
	}
	if w.hard {
		res.Checks = append(res.Checks, checkHardPromise(t.d, &p))
	}
	res.Checks = append(res.Checks, check{
		Name: "timed-phase-length", OK: cfg.smoke || res.TimedSeconds >= minSeconds,
		Detail: fmt.Sprintf("%.2f s (at least %d s outside -smoke)", res.TimedSeconds, minSeconds),
	})
	return res, nil
}

// warmAndRun runs the first warm queries untimed, collects the garbage
// of set-up and warm-up, and then runs the measured phase from query
// warm on.
func warmAndRun(t *target, warm int, lim limit, buf buffers) phase {
	runLoad(t.callers(), 0, limit{minCount: warm}, buffers{lats: warm}, t.do)
	runtime.GC()
	return runLoad(t.callers(), warm, lim, buf, t.do)
}

// shapeP50 is the median caller-side latency per shape, in µs.
func shapeP50(w *workload, p *phase) map[string]float64 {
	by := make([][]float64, len(w.shapes))
	for j, d := range p.lats {
		if d >= 0 {
			si := w.shapeOf(p.first + j)
			by[si] = append(by[si], usec(d))
		}
	}
	out := map[string]float64{}
	for si, s := range w.shapes {
		sort.Float64s(by[si])
		out[s.name] = percentile(by[si], 0.5)
	}
	return out
}

// replay runs queries first, first+1, ... first+n-1 through
// d.estimateWith on all cores (results depend only on data and options,
// never on what runs next to them) and returns their answers.
func replay(d *dataset, first, n int, hard bool) ([]outcome, error) {
	out := make([]outcome, n)
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := k; j < n; j += workers {
				opts := d.options(first + j)
				opts.HardDeadline = hard
				if out[j], errs[k] = d.estimateWith(first+j, opts); errs[k] != nil {
					return
				}
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkReadOnlyObservers is the observers-are-read-only contract at
// full size: every kept answer that crossed the wire — through
// admission, the span tracer, the stream writer, telemetry, calibration
// and the catalog miss path — must be bit-identical to
// DB.CountEstimate on a bare DB holding the same data, given the same
// shape, seed and wire-expressible options.
func checkReadOnlyObservers(w *workload, cfg runConfig, svc *service, p *phase) []check {
	cs := []check{{
		Name: "no-rejections", OK: svc.rejects() == 0,
		Detail: fmt.Sprintf("server_rejects = %d", svc.rejects()),
	}}
	c := check{Name: "wire-equals-in-process"}
	bare, err := w.open(cfg.seed)
	if err == nil {
		var again []outcome
		if again, err = replay(bare, p.first, len(p.outs), w.hard); err == nil {
			got, want := resultDigest(p.first, p.outs), resultDigest(p.first, again)
			c.OK = got == want
			c.Detail = fmt.Sprintf("%d answers over the wire vs bare DB replay: digest %.12s vs %.12s", len(p.outs), got, want)
		}
	}
	if err != nil {
		c.Detail = err.Error()
	}
	return append(cs, c)
}

// paperAnchors are the dβ=12 rows of EXPERIMENTS.md: mean stages
// completed in time and overspend risk per shape. The benchmark keeps
// one data set per run where the paper's protocol regenerates it per
// trial, so the anchors are bands, not equalities.
var paperAnchors = map[string]struct{ stages, riskPct float64 }{
	"select":    {2.17, 40.0},
	"intersect": {1.41, 34.0},
	"join":      {1.80, 16.5},
}

const (
	anchorStagesTol = 0.15
	anchorRiskTol   = 8.0
	// anchorMinN is the per-shape sample below which the bands are wider
	// than the sampling noise of a risk percentage (σ ≈ 1 point at 2,000).
	anchorMinN = 2000
)

// checkPaperAnchors verifies that what is being timed is still the
// paper's algorithm: a "faster" engine that plans different stages
// moves these before it moves any latency.
func checkPaperAnchors(w *workload, p *phase) []check {
	type acc struct{ n, stages, risk float64 }
	by := make([]acc, len(w.shapes))
	for j := range p.outs {
		a := &by[w.shapeOf(p.first+j)]
		a.n++
		a.stages += float64(p.outs[j].stages)
		if p.outs[j].overspent {
			a.risk++
		}
	}
	var cs []check
	for si, s := range w.shapes {
		want, ok := paperAnchors[s.name]
		if !ok {
			continue
		}
		a := by[si]
		c := check{Name: "paper-anchor/" + s.name}
		if a.n < anchorMinN {
			c.OK = true
			c.Detail = fmt.Sprintf("skipped: %d samples < %d", int(a.n), anchorMinN)
		} else {
			stages, risk := a.stages/a.n, 100*a.risk/a.n
			c.OK = abs(stages-want.stages) <= anchorStagesTol && abs(risk-want.riskPct) <= anchorRiskTol
			c.Detail = fmt.Sprintf("stages %.2f (paper-table %.2f ±%.2f), risk %.1f%% (%.1f ±%.0f)",
				stages, want.stages, anchorStagesTol, risk, want.riskPct, anchorRiskTol)
		}
		cs = append(cs, c)
	}
	return cs
}

// hardPromiseSample bounds the unarmed replay behind checkHardPromise.
const hardPromiseSample = 8000

// checkHardPromise verifies the hard promise itself: with the deadline
// armed, the p99 lateness of an answer must be under a tenth of what
// the same queries show unarmed (where the last stage runs to its end).
func checkHardPromise(d *dataset, p *phase) check {
	c := check{Name: "hard-deadline-holds"}
	armed := p.outs[:min(len(p.outs), hardPromiseSample)]
	unarmed, err := replay(d, p.first, len(armed), false)
	if err != nil {
		c.Detail = err.Error()
		return c
	}
	p99 := func(outs []outcome) float64 {
		over := make([]float64, len(outs))
		for j := range outs {
			over[j] = d.w.overshootMS(p.first+j, &outs[j])
		}
		sort.Float64s(over)
		return percentile(over, 0.99)
	}
	late, free := p99(armed), p99(unarmed)
	c.OK = late < free/10
	c.Detail = fmt.Sprintf("overshoot p99 over %d queries: %.1f sim-ms armed vs %.1f unarmed", len(armed), late, free)
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
