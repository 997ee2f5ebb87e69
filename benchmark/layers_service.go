package main

// The service's layers, timed from outside: standalone drivers that
// call one layer's public function the way internal/server does, plus
// the in-memory handler pass. The server's own per-request span
// partition already crosses the wire in every response's terminal
// spans event; traced.go aggregates it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"tcq"
	"tcq/internal/sched"
	"tcq/internal/trace"
	"tcq/internal/wire"
)

// timeLoop calls fn(k) for k = 0, 1, ... until lim is reached and
// returns the mean nanoseconds per call. The clock is read once per
// batch so that calls of a few hundred nanoseconds are not dominated by
// it.
func timeLoop(lim limit, fn func(k int)) float64 {
	const batch = 128
	start := time.Now()
	n := 0
	for {
		for b := 0; b < batch; b++ {
			fn(n)
			n++
		}
		if lim.reached(n, start) {
			break
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// parseNS times tcq.Parse over the workload's shapes, round-robin —
// what server.execute does with every RA request.
func parseNS(w *workload, lim limit) (float64, error) {
	var perr error
	dt := timeLoop(lim, func(k int) {
		if _, err := tcq.Parse(w.shapes[k%len(w.shapes)].ra); err != nil {
			perr = err
		}
	})
	return dt, perr
}

// requestBodies are the JSON bodies client.Query sends for queries
// [0, n).
func requestBodies(d *dataset, n int) ([][]byte, error) {
	bodies := make([][]byte, n)
	for i := range bodies {
		req := d.request(i)
		req.Tenant = "tenant0"
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// decodeRequestNS times the request decode exactly as handleQuery does
// it: a json.Decoder over a size-limited reader.
func decodeRequestNS(bodies [][]byte, lim limit) (float64, error) {
	var derr error
	dt := timeLoop(lim, func(k int) {
		var req wire.QueryRequest
		if err := json.NewDecoder(io.LimitReader(bytes.NewReader(bodies[k%len(bodies)]), 1<<20)).Decode(&req); err != nil {
			derr = err
		}
	})
	return dt, derr
}

// resultEvent is the terminal result event server.execute builds from
// an estimate.
func resultEvent(o outcome, reqID string) wire.Event {
	return wire.Event{
		Event: "result", RequestID: reqID, Kind: "count", Value: o.value,
		Estimate: o.value, Interval: o.interval, Confidence: confidence,
		Stages: o.stages, Blocks: o.blocks, Elapsed: o.elapsed,
		Utilization: o.utilization, Overspent: o.overspent,
		StopReason: "quota exhausted",
	}
}

// encodeEventNS times framing one result event as the stream writer
// does: json.Marshal plus the NDJSON newline.
func encodeEventNS(first int, outs []outcome, lim limit) (float64, error) {
	events := make([]wire.Event, 0, len(outs))
	for j := range outs {
		events = append(events, resultEvent(outs[j], fmt.Sprintf("req-%d", first+j+1)))
	}
	var eerr error
	var sink []byte
	dt := timeLoop(lim, func(k int) {
		b, err := json.Marshal(events[k%len(events)])
		if err != nil {
			eerr = err
		}
		sink = append(b, '\n')
	})
	_ = sink
	return dt, eerr
}

// admitNS times one uncontended pass through a tenant's admission gate
// — reserve the request's worst case, release it — with the gate built
// as Server.gate builds it.
func admitNS(d *dataset, lim limit) (float64, error) {
	gate := sched.NewController(d.db.Store(), sched.ControllerOptions{
		Options: sched.Options{Policy: sched.QuotaQueries, Metrics: trace.NewRegistry(), Seed: 1},
	})
	wcet := time.Duration(float64(d.w.shapes[0].quota) * (1 + quotaSlack))
	var aerr error
	dt := timeLoop(lim, func(k int) {
		release, _, err := gate.AdmitWait(k, wcet, tenantWindow, 0)
		if err != nil {
			aerr = err
			return
		}
		release()
	})
	return dt, aerr
}

// handlerPass is the in-memory handler pass's outcome.
type handlerPass struct {
	p50us float64
	bytes float64 // mean response body size
}

// runHandlerPass calls the server's handler directly with an in-memory
// recorder — one caller, no TCP, no net/http server, no client — so
// what remains is decode, admission, the engine, the observers and the
// stream writer.
func runHandlerPass(svc *service, lim limit) (handlerPass, error) {
	h := svc.srv.Handler()
	var lats []float64
	var total int
	start := time.Now()
	for i := 0; !lim.reached(i, start); i++ {
		body, err := json.Marshal(svc.d.request(i))
		if err != nil {
			return handlerPass{}, err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		lats = append(lats, usec(time.Since(t0)))
		if rec.Code != http.StatusOK {
			return handlerPass{}, fmt.Errorf("handler pass: query %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		total += rec.Body.Len()
	}
	sort.Float64s(lats)
	return handlerPass{p50us: percentile(lats, 0.5), bytes: float64(total) / float64(len(lats))}, nil
}
