// Trace-overhead guard: a full CountEstimate run with tracing off must
// cost the same as before the observability layer existed (the Nop
// tracer's Enabled() gate skips all record construction), and the
// collecting path should stay within a small constant factor. The
// executor-level guard (join/8 ns/op and allocs/op) lives in
// internal/exec's perf benchmarks; the benchmark's trace_overhead_frac
// (benchmark/README.md) measures the same end to end.
//
//	go test -bench=TraceOverhead -benchtime=200x
package tcq_test

import (
	"testing"
	"time"

	"tcq"
	"tcq/internal/calib"
	"tcq/internal/telemetry"
	"tcq/internal/trace"
)

// traceBenchDB builds the selection workload DB once per benchmark.
func traceBenchDB(b *testing.B, extra ...tcq.Option) (*tcq.DB, tcq.Query) {
	b.Helper()
	db := tcq.Open(append([]tcq.Option{tcq.WithSimulatedClock(7)}, extra...)...)
	rel, err := db.CreateRelation("orders", []tcq.Column{
		{Name: "id", Type: tcq.Int},
		{Name: "amount", Type: tcq.Int},
	}, 200)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := rel.Insert(i, (i*7919+3)%10000); err != nil {
			b.Fatal(err)
		}
	}
	return db, tcq.Rel("orders").Where(tcq.Col("amount").Lt(1000))
}

func benchCountEstimate(b *testing.B, collect bool, extra ...tcq.Option) {
	db, q := traceBenchDB(b, extra...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := db.CountEstimate(q, tcq.EstimateOptions{
			Quota:        10 * time.Second,
			Seed:         int64(i + 1),
			CollectTrace: collect,
		})
		if err != nil {
			b.Fatal(err)
		}
		if collect && est.Trace == nil {
			b.Fatal("trace not collected")
		}
	}
}

// BenchmarkCountEstimateTraceOverhead/off is the production path: the
// no-op tracer must add nothing but a handful of int64 increments.
// The telemetry variant measures the live progress registry riding the
// tracer chain (a handful of struct copies per stage boundary).
func BenchmarkCountEstimateTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchCountEstimate(b, false) })
	b.Run("collect", func(b *testing.B) { benchCountEstimate(b, true) })
	b.Run("telemetry", func(b *testing.B) { benchCountEstimate(b, false, tcq.WithTelemetry(64)) })
	b.Run("calibration", func(b *testing.B) { benchCountEstimate(b, false, tcq.WithCalibration(64)) })
	b.Run("spans", func(b *testing.B) { benchCountEstimateSpans(b) })
}

// benchCountEstimateSpans measures the span-timeline tracer riding the
// chain — the per-request cost tcqd pays for its latency anatomy (one
// Mark per stage boundary: a lock, a clock read, one slice append).
func benchCountEstimateSpans(b *testing.B) {
	db, q := traceBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl := telemetry.NewSpanTimeline()
		_, err := db.CountEstimate(q, tcq.EstimateOptions{
			Quota:  10 * time.Second,
			Seed:   int64(i + 1),
			Tracer: tl.Tracer(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tl.Spans()) == 0 {
			b.Fatal("span timeline collected nothing")
		}
	}
}

// TestNopTracerZeroAllocs pins the production tracing cost: with
// tracing off the engine talks to trace.Nop, and every callback on it —
// including the Enabled() gate the hot loop consults per stage — must
// complete without allocating. Together with internal/exec's
// steady-state key-pool test this keeps the untraced hot path
// allocation-flat per stage.
func TestNopTracerZeroAllocs(t *testing.T) {
	nop := trace.Combine() // canonical way to obtain the Nop tracer
	if nop != trace.Nop {
		t.Fatal("Combine() must return the shared Nop tracer")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if nop.Enabled() {
			t.Fatal("Nop tracer must report disabled")
		}
		nop.BeginQuery(trace.QueryInfo{})
		nop.StageDone(trace.StageRecord{})
		nop.EndQuery(trace.QueryEnd{})
	})
	if allocs != 0 {
		t.Errorf("nop tracer path allocates: %v allocs/op", allocs)
	}
}

// TestDisabledProgressHookZeroAllocs pins the disabled-telemetry cost:
// a nil registry hands out a nil handle, and every tracer callback on
// it must complete without allocating (the engine's hot loop pays one
// nil check and nothing else when no telemetry is attached).
func TestDisabledProgressHookZeroAllocs(t *testing.T) {
	var reg *telemetry.Registry
	h := reg.Track("ignored")
	if h.Enabled() {
		t.Fatal("nil handle must report disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		h = reg.Track("ignored")
		h.BeginQuery(trace.QueryInfo{})
		h.StageDone(trace.StageRecord{})
		h.EndQuery(trace.QueryEnd{})
		h.Discard()
	})
	if allocs != 0 {
		t.Errorf("disabled progress hook allocates: %v allocs/op", allocs)
	}
	if got := reg.InFlight(); got != nil {
		t.Errorf("nil registry InFlight = %v, want nil", got)
	}
}

// TestDisabledCalibProbeZeroAllocs pins the disabled-calibration cost:
// a nil auditor hands out a nil probe, and every tracer callback on it
// must complete without allocating — a DB opened without
// WithCalibration pays one nil check per query and nothing else.
func TestDisabledCalibProbeZeroAllocs(t *testing.T) {
	var a *calib.Auditor
	p := a.Track("ignored", nil)
	if p.Enabled() {
		t.Fatal("nil probe must report disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p = a.Track("ignored", nil)
		p.BeginQuery(trace.QueryInfo{})
		p.StageDone(trace.StageRecord{})
		p.EndQuery(trace.QueryEnd{})
		p.Discard()
	})
	if allocs != 0 {
		t.Errorf("disabled calibration probe allocates: %v allocs/op", allocs)
	}
	if got := a.FlightRecords(); got != nil {
		t.Errorf("nil auditor FlightRecords = %v, want nil", got)
	}
	if rep := a.Report(); rep.Queries != 0 {
		t.Errorf("nil auditor Report = %+v, want zero", rep)
	}
}

// TestDisabledSpanTracerZeroAllocs pins the disabled-span cost: a nil
// timeline hands out a typed-nil tracer, and every callback on it —
// plus Mark on the nil timeline itself — must complete without
// allocating. A server built without span collection pays one nil
// check per boundary and nothing else.
func TestDisabledSpanTracerZeroAllocs(t *testing.T) {
	var tl *telemetry.SpanTimeline
	tr := tl.Tracer()
	if tr.Enabled() {
		t.Fatal("nil timeline's tracer must report disabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr = tl.Tracer()
		tr.BeginQuery(trace.QueryInfo{})
		tr.StageDone(trace.StageRecord{})
		tr.EndQuery(trace.QueryEnd{})
		tl.Mark("eval", 1)
		tl.MarkRetries("admission_wait", 0, 2)
	})
	if allocs != 0 {
		t.Errorf("disabled span tracer allocates: %v allocs/op", allocs)
	}
	if got := tl.Spans(); got != nil {
		t.Errorf("nil timeline Spans = %v, want nil", got)
	}
	if got := tl.Wall(); got != 0 {
		t.Errorf("nil timeline Wall = %v, want 0", got)
	}
}
