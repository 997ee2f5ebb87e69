package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// limit ends a load phase: once dur has passed and at least minCount
// queries have been handed out. A warm-up or -smoke phase has dur 0 (a
// fixed count); a measured phase has both, so that the fixed prefix of
// queries the simulated-clock metrics are computed over is always run
// in full, however slow the box.
type limit struct {
	dur      time.Duration
	minCount int
}

// reached reports whether a phase that began at start and has handed
// out done queries is over.
func (l limit) reached(done int, start time.Time) bool {
	return done >= l.minCount && time.Since(start) >= l.dur
}

// phase is what one load phase observed from outside the program. Slot
// j of lats, outs and wire belongs to query first+j.
type phase struct {
	first  int
	lats   []time.Duration // host wall per query; negative: the query failed
	failed int
	// outs holds the answers of the first len(outs) queries, the
	// phase's fixed prefix; wire, when the phase asked for it, what
	// their responses said about the server's side.
	outs    []outcome
	wire    []wireTiming
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	gc      gcDelta
}

// buffers sizes a phase's memory before it starts: room for lats
// latencies, of which the first outs queries keep their answers (and
// their wire timings when wire is set).
type buffers struct {
	lats, outs int
	wire       bool
}

// gcDelta is the collector's activity over a phase.
type gcDelta struct {
	cycles uint32
	pause  time.Duration
	gcCPU  float64 // seconds of CPU in the collector
	allCPU float64 // seconds of CPU available to the process
}

var gcSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGCCPU() (gc, all float64) {
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		all = s[1].Value.Float64()
	}
	return gc, all
}

// doFunc runs query i on caller's connection and waits for its answer.
type doFunc func(caller, i int) (outcome, wireTiming, error)

// runLoad drives a closed loop: callers goroutines each take the next
// query index, run it, and wait for its reply before taking another.
// Indices start at first and are handed out without gaps, so a phase
// always covers [first, first+len(lats)). Every buffer is allocated
// before the phase starts, at a size that does not depend on how fast
// the program is, and each query writes its own slot: the loop itself
// allocates nothing, and what the harness adds to the live heap — and
// so to the collector's pacing — is the same on every commit. A phase
// that fills its buffers ends there. Memory statistics are read before
// the first and after the last query.
func runLoad(callers, first int, lim limit, buf buffers, do doFunc) phase {
	p := phase{first: first, lats: make([]time.Duration, buf.lats), outs: make([]outcome, buf.outs)}
	if buf.wire {
		p.wire = make([]wireTiming, buf.outs)
	}
	var next, failed atomic.Int64

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, all0 := readGCCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				// Whether to stop is decided before an index is taken, so
				// no index below the last one run goes unrun.
				if lim.reached(int(next.Load()), start) {
					return
				}
				j := int(next.Add(1) - 1)
				if j >= len(p.lats) {
					return
				}
				t0 := time.Now()
				out, wt, err := do(c, first+j)
				p.lats[j] = time.Since(t0)
				if err != nil {
					p.lats[j] = -1
					failed.Add(1)
					continue
				}
				if j < len(p.outs) {
					p.outs[j] = out
					if buf.wire {
						p.wire[j] = wt
					}
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	gc1, all1 := readGCCPU()
	runtime.ReadMemStats(&after)

	n := min(int(next.Load()), len(p.lats))
	p.lats = p.lats[:n]
	p.outs = p.outs[:min(n, len(p.outs))]
	p.wire = p.wire[:min(n, len(p.wire))]
	p.failed = int(failed.Load())
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	p.gc = gcDelta{
		cycles: after.NumGC - before.NumGC,
		pause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		gcCPU:  gc1 - gc0,
		allCPU: all1 - all0,
	}
	return p
}

// ok reports whether the phase's query in slot j was answered.
func (p *phase) ok(j int) bool { return p.lats[j] >= 0 }

// latencies returns the answered queries' host latencies in µs,
// ascending.
func (p *phase) latencies() []float64 {
	lats := make([]float64, 0, len(p.lats))
	for _, d := range p.lats {
		if d >= 0 {
			lats = append(lats, usec(d))
		}
	}
	sort.Float64s(lats)
	return lats
}

// overshootMS is how late query i's answer o was on the simulated
// clock: max(0, Elapsed − Quota) in milliseconds.
func (w *workload) overshootMS(i int, o *outcome) float64 {
	over := o.elapsed - w.shapes[w.shapeOf(i)].quota
	if over < 0 {
		return 0
	}
	return float64(over) / float64(time.Millisecond)
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of one timed phase (setup_s
// is added by the caller). The host-time and allocation metrics cover
// every timed query; the six simulated-clock metrics cover the phase's
// fixed prefix, the same queries on every run of a seed, so they
// repeat exactly. Failed queries are left out of every sample and
// counted in failed_frac: a run with any failure is not correct, so no
// percentile hides one. nil if no query was answered.
func endToEnd(w *workload, p *phase) map[string]metric {
	lats := p.latencies()
	n := float64(len(lats))
	var overshoot []float64
	var risk, covered int
	var relErr, util, blocks float64
	for j := range p.outs {
		if !p.ok(j) {
			continue
		}
		o := &p.outs[j]
		s := &w.shapes[w.shapeOf(p.first+j)]
		overshoot = append(overshoot, w.overshootMS(p.first+j, o))
		if o.overspent {
			risk++
		}
		// [Lo, Hi] contains the truth; a zero-width interval covers
		// only when the estimate is exact.
		if math.Abs(o.value-s.truth) <= o.interval {
			covered++
		}
		relErr += math.Abs(o.value-s.truth) / s.truth
		util += o.utilization
		blocks += float64(o.blocks)
	}
	q := float64(len(overshoot))
	if q == 0 {
		return nil
	}
	sort.Float64s(overshoot)
	return map[string]metric{
		"throughput_qps":   {n / p.wall.Seconds(), "1/s"},
		"latency_p50_us":   {percentile(lats, 0.50), "us"},
		"latency_p99_us":   {percentile(lats, 0.99), "us"},
		"allocs_per_query": {float64(p.mallocs) / n, "count"},
		"bytes_per_query":  {float64(p.bytes) / n, "B"},
		"failed_frac":      {float64(p.failed) / float64(len(p.lats)), "ratio"},
		"risk_pct":         {100 * float64(risk) / q, "%"},
		"overshoot_p99_ms": {percentile(overshoot, 0.99), "sim-ms"},
		"ci_coverage":      {float64(covered) / q, "ratio"},
		"rel_err_mean":     {relErr / q, "ratio"},
		"utilization_mean": {util / q, "ratio"},
		"blocks_per_query": {blocks / q, "count"},
	}
}
