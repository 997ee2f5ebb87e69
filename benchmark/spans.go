package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program: what was called, when, for which query, and
// under which enclosing span (-1 for none).
type span struct {
	kind       spanKind
	query      int32
	parent     int32
	start, end time.Duration // since the recorder's epoch
}

// spanKind names a span. A small integer rather than a string keeps the
// span buffer pointer-free, so the collector never scans it.
type spanKind uint8

const (
	spNewSim spanKind = iota
	spSession
	spCount
	spBuild
	spRngSeed
	spSamplingNew
	spStage
	spSnapshot
	spPlan
	spPredictProbe
	spDraw
	spLoad
	spAdvance
	spObserve
	spEstimate
)

var spanKindNames = [...]string{
	spNewSim:       "vclock.newsim",
	spSession:      "storage.session",
	spCount:        "core.count(walk)",
	spBuild:        "exec.build",
	spRngSeed:      "core.rng_seed",
	spSamplingNew:  "sampling.new",
	spStage:        "core.stage",
	spSnapshot:     "exec.snapshot",
	spPlan:         "timectrl.plan",
	spPredictProbe: "cost.predict(probe)",
	spDraw:         "sampling.draw",
	spLoad:         "exec.load",
	spAdvance:      "exec.advance",
	spObserve:      "cost.observe",
	spEstimate:     "estimator.estimate",
}

func (k spanKind) String() string { return spanKindNames[k] }

// recorder keeps spans in memory for the whole traced run; they are
// aggregated and written out after it.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of spans begun and not yet ended
}

// newRecorder makes a recorder with room for capacity spans (more grow
// the buffer).
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(kind spanKind, query int) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: kind, query: int32(query), parent: parent})
	r.open = append(r.open, id)
	r.spans[id].start = time.Since(r.epoch) // last, so bookkeeping is outside the span
	return id
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int32) {
	t := time.Since(r.epoch)
	r.spans[id].end = t
	r.open = r.open[:len(r.open)-1]
}

// spanAgg aggregates every span of one name.
type spanAgg struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	// Self is Total minus the time the spans' direct children cover:
	// what the layer itself spent, not what it called.
	Self time.Duration `json:"self_ns"`
}

// aggregate folds spans into per-name totals, sorted by name.
func aggregate(spans []span) []spanAgg {
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.end - s.start
		}
	}
	by := map[spanKind]*spanAgg{}
	for i, s := range spans {
		a := by[s.kind]
		if a == nil {
			a = &spanAgg{Name: s.kind.String()}
			by[s.kind] = a
		}
		d := s.end - s.start
		a.Count++
		a.Total += d
		a.Self += d - childTime[i]
	}
	out := make([]spanAgg, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func findAgg(aggs []spanAgg, kind spanKind) spanAgg {
	for _, a := range aggs {
		if a.Name == kind.String() {
			return a
		}
	}
	return spanAgg{Name: kind.String()}
}
