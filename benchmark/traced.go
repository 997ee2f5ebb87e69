package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tcq"
	"tcq/internal/trace"
)

// A traced run measures the layers its workload exists to stress. An
// in-process workload's run is
//
//	R  the reference pass: DB.CountEstimate on a bare DB, as the untraced
//	   run does it (the tail beyond p99, the median per shape, what the
//	   collector did),
//	L  the ledger pass: every query three times — DB.CountEstimate (A),
//	   core.Engine.Count (B) and the span-recording walk (C, which must
//	   equal B bit for bit) — in shuffled order, so that the differences
//	   A−B and C−B compare like with like whatever the heap holds.
//
// The wire workload's run is
//
//	W  the loopback service as the untraced run drives it, keeping each
//	   response's spans event,
//	H  the server's handler called in memory,
//	D  the standalone layer drivers,
//	O  the workload's queries replayed in-process on DBs with one
//	   observer enabled each.
//
// The driver wants every per-layer metric from every workload, so a
// metric the run does not measure — a service layer on an in-process
// workload, which does not cross it; the engine's ledger on the wire
// workload, whose shapes are paper-mix's — is reported as 0 and listed
// as not measured. Shares are fractions of --seconds.
const (
	shareR = 0.30
	shareL = 0.60
	shareW = 0.40
	shareH = 0.10
	shareD = 0.012 // each of four drivers
	shareO = 0.30
)

const (
	// ledgerMax bounds the ledger pass, and with it the span buffer
	// (about 30 spans a query at paper size, 4 MB in all — what an
	// untraced run's own buffers take).
	ledgerMax     = 4000
	spansPerQuery = 32
	// wireKeep is how many of pass W's responses keep their spans event.
	wireKeep = 8192
)

// perLayerUnits names every per-layer metric, as BENCHMARK.json lists
// them, with its unit.
var perLayerUnits = map[string]string{
	"tcq.shell_ns": "ns", "vclock.newsim_ns": "ns", "storage.session_ns": "ns", "storage.blocks_read": "count",
	"core.rng_seed_ns": "ns", "exec.build_ns": "ns", "exec.snapshot_ns": "ns", "exec.load_ns": "ns",
	"exec.tuples_loaded": "count", "exec.advance_ns": "ns", "exec.comparisons": "count", "exec.deadline_polls": "count",
	"sampling.new_ns": "ns", "sampling.draw_ns": "ns", "sampling.blocks_drawn": "count",
	"timectrl.plan_ns": "ns", "timectrl.search_iters": "count", "cost.predict_ns": "ns", "cost.observe_ns": "ns",
	"estimator.estimate_ns": "ns", "core.count_ns": "ns", "core.unattributed_ns": "ns", "core.stages_per_query": "count",
	"telemetry.overhead_ns": "ns", "calib.overhead_ns": "ns", "trace.collect_overhead_ns": "ns", "catalog.miss_overhead_ns": "ns",
	"raparse.parse_ns": "ns", "wire.decode_req_ns": "ns", "wire.encode_event_ns": "ns", "wire.response_bytes": "B",
	"sched.admit_ns": "ns", "server.rejects": "count", "server.handler_us": "us",
	"server.span.decode_us": "us", "server.span.admission_wait_us": "us", "server.span.plan_us": "us",
	"server.span.eval_us": "us", "server.span.finalize_us": "us", "server.span.stream_write_us": "us",
	"server.span.flush_us": "us", "server.wall_p50_us": "us", "server.slo_miss_frac": "ratio",
	"client.net_overhead_us": "us", "runtime.gc_cycles": "1/s", "runtime.gc_pause_ms": "ms/s",
	"runtime.gc_cpu_frac": "ratio", "latency_p999_us": "us", "trace_overhead_frac": "ratio",
	"shape.select.p50_us": "us", "shape.intersect.p50_us": "us", "shape.join.p50_us": "us", "shape.diff.p50_us": "us",
}

// driverLimit sizes a standalone driver loop.
func (c runConfig) driverLimit() limit {
	if c.smoke {
		return limit{minCount: 2048}
	}
	return limit{dur: time.Duration(shareD * c.seconds * float64(time.Second))}
}

// tracedResult is one traced run of one workload.
type tracedResult struct {
	Workload string            `json:"workload"`
	Metrics  map[string]metric `json:"metrics"`
	// NotMeasured names the metrics of layers this workload's run does
	// not measure; they read 0 in Metrics.
	NotMeasured []string `json:"not_measured"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	// LedgerQueries is how many queries the ledger pass covered.
	LedgerQueries int       `json:"ledger_queries"`
	Spans         []spanAgg `json:"spans"`
	Checks        []check   `json:"checks"`
}

// put records one per-layer metric.
func (r *tracedResult) put(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("benchmark: unlisted per-layer metric " + name)
	}
	r.Metrics[name] = metric{v, unit}
}

// putReference reports the diagnostics of the workload's own surface:
// the tail beyond the end-to-end p99, the median per shape (which shape
// an end-to-end move came from) and what the collector did.
func (r *tracedResult) putReference(w *workload, ref *phase) {
	r.Attempted += len(ref.lats)
	r.Failed += ref.failed
	r.put("latency_p999_us", percentile(ref.latencies(), 0.999))
	for name, p50 := range shapeP50(w, ref) {
		r.put("shape."+name+".p50_us", p50)
	}
	r.put("runtime.gc_cycles", float64(ref.gc.cycles)/ref.wall.Seconds())
	r.put("runtime.gc_pause_ms", float64(ref.gc.pause)/float64(time.Millisecond)/ref.wall.Seconds())
	r.put("runtime.gc_cpu_frac", ref.gc.gcCPU/ref.gc.allCPU)
}

// runTraced measures one workload's layers.
func runTraced(w *workload, cfg runConfig) (*tracedResult, error) {
	res := &tracedResult{Workload: w.name, Metrics: map[string]metric{}}
	side := tracedEngineSide
	if w.wire {
		side = tracedServiceSide
	}
	if err := side(w, cfg, res); err != nil {
		return nil, err
	}
	res.Checks = append(res.Checks, check{Name: "no-failures", OK: res.Failed == 0,
		Detail: fmt.Sprintf("%d of %d queries failed", res.Failed, res.Attempted)})
	for name, unit := range perLayerUnits {
		if _, ok := res.Metrics[name]; !ok {
			res.Metrics[name] = metric{0, unit}
			res.NotMeasured = append(res.NotMeasured, name)
		}
	}
	sort.Strings(res.NotMeasured)
	return res, nil
}

// tracedEngineSide runs passes R and L on a bare DB.
func tracedEngineSide(w *workload, cfg runConfig, res *tracedResult) error {
	bare, err := w.open(cfg.seed)
	if err != nil {
		return err
	}
	first := cfg.warmup(w) / 4
	// The span buffer exists before R, so that R and L see the same heap.
	rec := newRecorder(spansPerQuery * ledgerMax)
	lim, buf := cfg.measured(w, shareR, 0)
	pR := warmAndRun(&target{d: bare}, first, lim, buf)
	res.putReference(w, &pR)
	if res.Failed > 0 {
		return nil
	}

	// L: A, B and C on each query, in an order drawn per query: a fixed
	// rotation can fall into step with the collector's cycle, which at
	// these allocation rates comes round every few calls.
	order := rand.New(rand.NewSource(cfg.seed))
	lim, _ = cfg.measured(w, shareL, 0)
	reg := trace.NewRegistry()
	var dtA, dtB, sumB time.Duration
	var shell []float64
	var counts walkCounts
	var pub outcome
	var eng, walked engineResult
	steps := [3]func(i int) error{
		func(i int) (err error) {
			t0 := time.Now()
			pub, err = bare.estimate(i)
			dtA = time.Since(t0)
			return err
		},
		func(i int) (err error) {
			eng, dtB, err = bare.engineCount(i, reg)
			return err
		},
		func(i int) (err error) {
			var c walkCounts
			walked, c, err = bare.walk(rec, i)
			counts.add(c)
			return err
		},
	}
	n, mismatches, firstBad := 0, 0, -1
	for start := time.Now(); n < ledgerMax && !lim.reached(n, start); n++ {
		i := first + n
		for _, k := range order.Perm(len(steps)) {
			if err := steps[k](i); err != nil {
				return fmt.Errorf("%s: ledger pass, query %d: %w", w.name, i, err)
			}
		}
		sumB += dtB
		shell = append(shell, float64(dtA-dtB))
		if walked != eng || pub.value != eng.value || pub.stages != eng.stages || pub.blocks != eng.blocks || pub.elapsed != eng.elapsed {
			if mismatches++; firstBad < 0 {
				firstBad = i
			}
		}
	}
	res.Attempted += n
	res.LedgerQueries = n
	c := check{Name: "walk-equals-count", OK: mismatches == 0,
		Detail: fmt.Sprintf("%d queries: walk, Engine.Count and DB.CountEstimate agree bit for bit on (Value, Variance, Stages, Blocks, Elapsed)", n)}
	if mismatches > 0 {
		c.Detail = fmt.Sprintf("%d of %d queries differ, first at query %d", mismatches, n, firstBad)
	}
	res.Checks = append(res.Checks, c)

	res.Spans = aggregate(rec.spans)
	ns := func(d time.Duration) float64 { return float64(d) }
	per := func(k spanKind) float64 { return ns(findAgg(res.Spans, k).Total) / float64(n) }
	perQ := func(x float64) float64 { return x / float64(n) }
	countNS := ns(sumB) / float64(n)
	res.put("core.count_ns", countNS)
	res.put("tcq.shell_ns", median(shell))
	res.put("vclock.newsim_ns", per(spNewSim))
	res.put("storage.session_ns", per(spSession))
	attributed := 0.0
	for _, l := range []struct {
		name string
		kind spanKind
	}{
		{"core.rng_seed_ns", spRngSeed}, {"exec.build_ns", spBuild}, {"exec.snapshot_ns", spSnapshot},
		{"exec.load_ns", spLoad}, {"exec.advance_ns", spAdvance}, {"sampling.new_ns", spSamplingNew},
		{"sampling.draw_ns", spDraw}, {"timectrl.plan_ns", spPlan}, {"cost.observe_ns", spObserve},
		{"estimator.estimate_ns", spEstimate},
	} {
		res.put(l.name, per(l.kind))
		attributed += per(l.kind)
	}
	res.put("core.unattributed_ns", countNS-attributed)
	probe := findAgg(res.Spans, spPredictProbe)
	res.put("cost.predict_ns", ns(probe.Total)/float64(max(probe.Count, 1)))
	walkNS := ns(findAgg(res.Spans, spCount).Total - probe.Total)
	res.put("trace_overhead_frac", (walkNS-ns(sumB))/ns(sumB))
	res.put("core.stages_per_query", perQ(float64(counts.stagesRun)))
	res.put("timectrl.search_iters", perQ(float64(counts.searchIters)))
	res.put("sampling.blocks_drawn", perQ(float64(counts.blocksDrawn)))
	res.put("exec.tuples_loaded", perQ(float64(counts.tuplesLoaded)))
	res.put("exec.comparisons", perQ(float64(counts.comparisons)))
	res.put("exec.deadline_polls", perQ(float64(counts.deadlinePolls)))
	res.put("storage.blocks_read", perQ(float64(counts.blocksRead)))
	return nil
}

// tracedServiceSide runs passes W, H and D against a loopback service
// and, once that is stopped, pass O.
func tracedServiceSide(w *workload, cfg runConfig, res *tracedResult) error {
	first := cfg.warmup(w) / 4
	if err := tracedWire(w, cfg, res, first); err != nil || res.Failed > 0 {
		return err
	}
	over, oc, err := observerOverheads(w, cfg, first)
	if err != nil {
		return err
	}
	for name, v := range over {
		res.put(name, v)
	}
	res.Checks = append(res.Checks, oc)
	return nil
}

// tracedWire is passes W, H and D.
func tracedWire(w *workload, cfg runConfig, res *tracedResult, first int) error {
	d, err := w.open(cfg.seed, serviceOptions()...)
	if err != nil {
		return err
	}
	svc, err := startService(d)
	if err != nil {
		return err
	}
	defer svc.stop()
	lim, buf := cfg.measured(w, shareW, min(wireKeep, cfg.prefix(w)))
	buf.wire = true
	pW := warmAndRun(&target{d: d, svc: svc}, first, lim, buf)
	res.putReference(w, &pW)
	res.Checks = append(res.Checks, check{Name: "no-rejections", OK: svc.rejects() == 0,
		Detail: fmt.Sprintf("server_rejects = %d", svc.rejects())})
	if res.Failed > 0 {
		return nil
	}

	// W's spans: where in the handler a request's time sits, and what
	// the network and the client add on top.
	var wall, net []float64
	var bySpan [len(spanNames)][]float64
	for j, t := range pW.wire {
		wall = append(wall, usec(t.wall))
		net = append(net, usec(pW.lats[j]-t.wall))
		for k := range spanNames {
			bySpan[k] = append(bySpan[k], usec(t.spans[k]))
		}
	}
	p50 := func(xs []float64) float64 { sort.Float64s(xs); return percentile(xs, 0.5) }
	for k, name := range spanNames {
		res.put("server.span."+name+"_us", p50(bySpan[k]))
	}
	res.put("server.wall_p50_us", p50(wall))
	res.put("client.net_overhead_us", p50(net))
	res.put("server.rejects", float64(svc.rejects()))
	miss, err := svc.sloMissFrac()
	if err != nil {
		return err
	}
	res.put("server.slo_miss_frac", miss)

	// H: the handler without the network.
	lim, _ = cfg.measured(w, shareH, 0)
	hp, err := runHandlerPass(svc, lim)
	if err != nil {
		return err
	}
	res.put("server.handler_us", hp.p50us)
	res.put("wire.response_bytes", hp.bytes)

	// D: standalone drivers, fed W's first answers.
	dl := cfg.driverLimit()
	answers := pW.outs[:min(len(pW.outs), 256)]
	bodies, err := requestBodies(d, len(answers))
	if err != nil {
		return err
	}
	for _, drv := range []struct {
		name string
		run  func() (float64, error)
	}{
		{"raparse.parse_ns", func() (float64, error) { return parseNS(w, dl) }},
		{"wire.decode_req_ns", func() (float64, error) { return decodeRequestNS(bodies, dl) }},
		{"wire.encode_event_ns", func() (float64, error) { return encodeEventNS(pW.first, answers, dl) }},
		{"sched.admit_ns", func() (float64, error) { return admitNS(d, dl) }},
	} {
		v, err := drv.run()
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.name, drv.name, err)
		}
		res.put(drv.name, v)
	}
	return nil
}

// observerOverheads replays the workload's queries, in small chunks, on
// DBs that differ from the bare one by exactly one observer, and
// returns each observer's mean added host time per query. Every
// variant must produce the bare DB's answers: observers are read-only.
func observerOverheads(w *workload, cfg runConfig, first int) (map[string]float64, check, error) {
	bare, err := w.open(cfg.seed)
	if err != nil {
		return nil, check{}, err
	}
	type variant struct {
		name  string
		d     *dataset
		tweak func(i int, o *tcq.EstimateOptions)
		total time.Duration
		sum   digester
	}
	variants := []*variant{
		{name: "bare", d: bare, sum: newDigester()},
		{name: "trace.collect_overhead_ns", d: bare, sum: newDigester(),
			tweak: func(_ int, o *tcq.EstimateOptions) { o.CollectTrace = true }},
	}
	for _, v := range []struct {
		name  string
		opt   tcq.Option
		tweak func(i int, o *tcq.EstimateOptions)
	}{
		{name: "telemetry.overhead_ns", opt: tcq.WithTelemetry(64)},
		{name: "calib.overhead_ns", opt: tcq.WithCalibration(64), tweak: func(i int, o *tcq.EstimateOptions) {
			o.GroundTruth = &w.shapes[w.shapeOf(i)].truth
		}},
		{name: "catalog.miss_overhead_ns", opt: tcq.WithCatalog()},
	} {
		d, err := w.open(cfg.seed, v.opt)
		if err != nil {
			return nil, check{}, err
		}
		variants = append(variants, &variant{name: v.name, d: d, tweak: v.tweak, sum: newDigester()})
	}

	const chunk = 32
	lim, _ := cfg.measured(w, shareO, 0)
	start := time.Now()
	done := 0
	for round := 0; !lim.reached(done, start); round++ {
		// Rotate who goes first: whoever does pays for pulling the
		// chunk's blocks into cache.
		for k := range variants {
			v := variants[(k+round)%len(variants)]
			t0 := time.Now()
			for i := first + done; i < first+done+chunk; i++ {
				opts := v.d.options(i)
				if v.tweak != nil {
					v.tweak(i, &opts)
				}
				o, err := v.d.estimateWith(i, opts)
				if err != nil {
					return nil, check{}, fmt.Errorf("%s: observer pass %s query %d: %w", w.name, v.name, i, err)
				}
				v.sum.add(i, o)
			}
			v.total += time.Since(t0)
		}
		done += chunk
	}

	out := map[string]float64{}
	c := check{Name: "observers-read-only", OK: true}
	want := variants[0].sum.sum()
	for _, v := range variants[1:] {
		out[v.name] = float64(v.total-variants[0].total) / float64(done)
		if got := v.sum.sum(); got != want {
			c.OK = false
			c.Detail += fmt.Sprintf("%s changed answers (digest %.12s vs bare %.12s); ", v.name, got, want)
		}
	}
	if c.OK {
		c.Detail = fmt.Sprintf("%d queries: telemetry, calibration, trace collection and catalog miss path leave every answer bit-identical", done)
	}
	return out, c, nil
}
