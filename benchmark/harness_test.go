package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.50, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	// 4,000 samples leave exactly 40 beyond the p99.
	big := make([]float64, 4000)
	for i := range big {
		big[i] = float64(i)
	}
	if got := percentile(big, 0.99); got != 3959 {
		t.Errorf("p99 of 0..3999 = %g, want 3959 (40 samples beyond it)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestResultDigest(t *testing.T) {
	mk := func() []outcome {
		return []outcome{
			{value: 1000.5, interval: 12.25, stages: 2, blocks: 70, elapsed: 9 * time.Second, utilization: 0.9},
			{value: 0, interval: 0, stages: 0, blocks: 0, elapsed: 11 * time.Second, overspent: true},
		}
	}
	base := resultDigest(5, mk())
	if base != resultDigest(5, mk()) {
		t.Fatal("equal answers, different digests")
	}
	// Every hashed field moves it, down to one bit of a float.
	for name, mutate := range map[string]func(*outcome){
		"value":     func(o *outcome) { o.value = math.Nextafter(o.value, math.Inf(1)) },
		"interval":  func(o *outcome) { o.interval = math.Nextafter(o.interval, math.Inf(1)) },
		"stages":    func(o *outcome) { o.stages++ },
		"blocks":    func(o *outcome) { o.blocks++ },
		"elapsed":   func(o *outcome) { o.elapsed++ },
		"overspent": func(o *outcome) { o.overspent = !o.overspent },
	} {
		outs := mk()
		mutate(&outs[0])
		if resultDigest(5, outs) == base {
			t.Errorf("digest ignores %s", name)
		}
	}
	if resultDigest(6, mk()) == base {
		t.Error("digest ignores the query index")
	}
}

// answer is a doFunc whose answer says which query was asked.
func answer(_, i int) (outcome, wireTiming, error) {
	return outcome{stages: i}, wireTiming{wall: time.Duration(i)}, nil
}

// The warm-up is a fixed count of leading queries: a phase that starts
// at first covers exactly [first, first+count), each query in its own
// slot, none handed out twice — also with two callers racing for them.
func TestRunLoadCoversFixedRange(t *testing.T) {
	for _, callers := range []int{1, 2} {
		const first, count, keep = 37, 500, 200
		p := runLoad(callers, first, limit{minCount: count}, buffers{lats: count, outs: keep, wire: true}, answer)
		if len(p.lats) != count || len(p.outs) != keep || len(p.wire) != keep || p.failed != 0 {
			t.Fatalf("%d callers: %d latencies, %d answers, %d timings, %d failed; want %d, %d, %d, 0",
				callers, len(p.lats), len(p.outs), len(p.wire), p.failed, count, keep, keep)
		}
		for j := range p.outs {
			if p.outs[j].stages != first+j || p.wire[j].wall != time.Duration(first+j) || !p.ok(j) {
				t.Fatalf("%d callers: slot %d holds query %d's answer, want %d's", callers, j, p.outs[j].stages, first+j)
			}
		}
	}
}

// A measured phase runs for its duration and at least its prefix,
// whichever ends later, without gaps, and stops where its buffers do.
func TestRunLoadLimits(t *testing.T) {
	slow := func(c, i int) (outcome, wireTiming, error) {
		time.Sleep(time.Millisecond)
		return answer(c, i)
	}
	p := runLoad(2, 0, limit{dur: 30 * time.Millisecond, minCount: 5}, buffers{lats: 4096, outs: 5}, slow)
	if p.wall < 30*time.Millisecond || p.wall > 2*time.Second || len(p.lats) < 20 || len(p.outs) != 5 {
		t.Errorf("time-bound phase took %v for %d queries, kept %d answers; want about 30ms, 60, 5", p.wall, len(p.lats), len(p.outs))
	}
	p = runLoad(2, 0, limit{dur: time.Millisecond, minCount: 40}, buffers{lats: 4096, outs: 40}, slow)
	if len(p.lats) < 40 || len(p.lats) > 41 || len(p.outs) != 40 {
		t.Errorf("phase shorter than its prefix ran %d queries and kept %d answers, want 40", len(p.lats), len(p.outs))
	}
	p = runLoad(2, 0, limit{dur: time.Hour}, buffers{lats: 64}, answer)
	if len(p.lats) != 64 {
		t.Errorf("phase ran %d queries into 64 slots", len(p.lats))
	}
}

func TestRunLoadCountsFailures(t *testing.T) {
	p := runLoad(1, 0, limit{minCount: 10}, buffers{lats: 10, outs: 10}, func(c, i int) (outcome, wireTiming, error) {
		if i == 3 {
			return outcome{}, wireTiming{}, errors.New("refused")
		}
		return answer(c, i)
	})
	if p.failed != 1 || p.ok(3) || !p.ok(4) || len(p.latencies()) != 9 {
		t.Errorf("failed = %d, ok(3) = %v, %d latencies; want 1, false, 9", p.failed, p.ok(3), len(p.latencies()))
	}
}

func TestEndToEndArithmetic(t *testing.T) {
	w := &workload{shapes: []shape{{name: "s", quota: 10 * time.Second, truth: 100}}}
	us := time.Microsecond
	p := &phase{wall: 3 * time.Second, mallocs: 6000, bytes: 12000, failed: 1,
		// Six answered queries and a failed one; the first five are the prefix.
		lats: []time.Duration{100 * us, 300 * us, 200 * us, 400 * us, -1, 500 * us, 600 * us},
		outs: []outcome{
			// exact, inside the quota
			{value: 100, interval: 0, blocks: 10, elapsed: 9 * time.Second, utilization: 0.9},
			// covered, 1 s late
			{value: 110, interval: 10, blocks: 20, elapsed: 11 * time.Second, utilization: 0.8, overspent: true},
			// zero-width interval that is not exact: a miss
			{value: 0, interval: 0, blocks: 0, elapsed: 10 * time.Second, utilization: 0},
			// not covered
			{value: 150, interval: 20, blocks: 30, elapsed: 8 * time.Second, utilization: 0.7},
			{}, // failed
		}}
	m := endToEnd(w, p)
	want := map[string]float64{
		"throughput_qps":   2,
		"latency_p50_us":   300,
		"latency_p99_us":   600,
		"allocs_per_query": 1000,
		"bytes_per_query":  2000,
		"failed_frac":      1.0 / 7,
		"risk_pct":         25,
		"overshoot_p99_ms": 1000,
		"ci_coverage":      0.5,
		"rel_err_mean":     (0 + 0.1 + 1 + 0.5) / 4,
		"utilization_mean": 0.6,
		"blocks_per_query": 15,
	}
	if len(m) != len(want) {
		t.Errorf("%d metrics, want %d", len(m), len(want))
	}
	for name, v := range want {
		if got := m[name].Value; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
		if m[name].Unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
	// Queries timed beyond the prefix move host-time metrics only.
	longer := *p
	longer.lats = append(append([]time.Duration{}, p.lats...), 700*us, 800*us)
	m2 := endToEnd(w, &longer)
	for _, name := range simClockMetrics {
		if m2[name] != m[name] {
			t.Errorf("%s moved from %v to %v with queries beyond the prefix", name, m[name], m2[name])
		}
	}
	if m2["latency_p99_us"].Value != 800 {
		t.Errorf("latency_p99_us = %g, want 800: host-time metrics cover every timed query", m2["latency_p99_us"].Value)
	}
}

// A layer's self time is its span minus what its direct children cover.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{kind: spCount, query: 1, parent: -1, start: 0, end: 100},
		{kind: spStage, query: 1, parent: 0, start: 10, end: 90},
		{kind: spLoad, query: 1, parent: 1, start: 20, end: 50},
		{kind: spLoad, query: 1, parent: 1, start: 50, end: 60},
		{kind: spAdvance, query: 1, parent: 1, start: 60, end: 85},
		{kind: spNewSim, query: 1, parent: -1, start: 100, end: 107},
	}
	aggs := aggregate(spans)
	for _, tc := range []struct {
		kind        spanKind
		count       int
		total, self time.Duration
	}{
		{spCount, 1, 100, 20},  // 100 − stage 80
		{spStage, 1, 80, 15},   // 80 − (30 + 10 + 25)
		{spLoad, 2, 40, 40},    // leaves
		{spAdvance, 1, 25, 25}, //
		{spNewSim, 1, 7, 7},    // a second root
		{spPlan, 0, 0, 0},      // never recorded
	} {
		a := findAgg(aggs, tc.kind)
		if a.Count != tc.count || a.Total != tc.total || a.Self != tc.self {
			t.Errorf("%s: count %d total %d self %d, want %d %d %d", tc.kind, a.Count, a.Total, a.Self, tc.count, tc.total, tc.self)
		}
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder(8)
	outer := rec.begin(spCount, 3)
	inner := rec.begin(spStage, 3)
	leaf := rec.begin(spLoad, 3)
	rec.end(leaf)
	rec.end(inner)
	sibling := rec.begin(spEstimate, 3)
	rec.end(sibling)
	rec.end(outer)
	wantParent := []int32{-1, outer, inner, outer}
	for i, s := range rec.spans {
		if s.parent != wantParent[i] || s.query != 3 || s.end < s.start {
			t.Errorf("span %d (%s): parent %d query %d [%d, %d], want parent %d", i, s.kind, s.parent, s.query, s.start, s.end, wantParent[i])
		}
	}
	if len(rec.open) != 0 {
		t.Errorf("%d spans left open", len(rec.open))
	}
}

func TestGuards(t *testing.T) {
	ok := environment{NProc: 2, GOMAXPROCS: 2, Conns: wireConns, Seconds: 20}
	if err := guard(ok, workloads); err != nil {
		t.Errorf("guard refused a valid configuration: %v", err)
	}
	for name, mutate := range map[string]func(*environment){
		"GOMAXPROCS above nproc":   func(e *environment) { e.GOMAXPROCS = 4 },
		"connections above nproc":  func(e *environment) { e.NProc, e.GOMAXPROCS = 1, 1 },
		"measured phase too short": func(e *environment) { e.Seconds = 5 },
	} {
		e := ok
		mutate(&e)
		if guard(e, workloads) == nil {
			t.Errorf("guard accepted %s", name)
		}
	}
	oneCPU := environment{NProc: 1, GOMAXPROCS: 1, Conns: wireConns, Seconds: 20}
	if err := guard(oneCPU, []*workload{findWorkload("paper-mix")}); err != nil {
		t.Errorf("guard refused an in-process workload on one CPU: %v", err)
	}
	short := ok
	short.Seconds, short.Smoke = 1, true
	if err := guard(short, workloads); err != nil {
		t.Errorf("guard refused -smoke: %v", err)
	}
}
