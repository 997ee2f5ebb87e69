package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"tcq/internal/client"
	"tcq/internal/server"
	"tcq/internal/telemetry"
	"tcq/internal/wire"
)

// spanNames are the server's span kinds in timeline order; a response's
// spans event partitions the handler's wall time into them.
var spanNames = [...]string{
	telemetry.SpanDecode, telemetry.SpanAdmissionWait, telemetry.SpanPlan, telemetry.SpanEval,
	telemetry.SpanFinalize, telemetry.SpanStreamWrite, telemetry.SpanFlush,
}

// wireTiming is what one response's terminal spans event says about the
// server's side: the handler's wall time and its partition per span name
// (eval and the stream spans occur once per stage; they are summed).
type wireTiming struct {
	wall  time.Duration
	spans [len(spanNames)]time.Duration
}

func timingOf(ev *wire.Event) wireTiming {
	t := wireTiming{wall: ev.Wall}
	for _, sp := range ev.Spans {
		for k, name := range spanNames {
			if sp.Name == name {
				t.spans[k] += sp.Dur
				break
			}
		}
	}
	return t
}

// service is a loopback tcqd: a server.Server over the dataset's DB on
// 127.0.0.1:0 plus one keep-alive client connection per caller.
type service struct {
	d       *dataset
	srv     *server.Server
	rs      *telemetry.RunningServer
	clients []*client.Client
	tr      []*http.Transport
}

// cmd/tcqd's flag defaults for the admission gates (no admission wait).
const (
	tenantWindow = 60 * time.Second
	quotaSlack   = 0.05
)

// newServer configures a server.Server the way cmd/tcqd's flag defaults
// do.
func newServer(d *dataset) *server.Server {
	return server.New(server.Config{
		DB:           d.db,
		DefaultQuota: 2 * time.Second,
		MaxQuota:     30 * time.Second,
		TenantWindow: tenantWindow,
		Slack:        quotaSlack,
		SLOTarget:    0.99,
	})
}

// startService starts the server and opens wireConns connections, each
// its own tenant with its own single-connection transport, so "2
// callers" is exactly 2 TCP connections.
func startService(d *dataset) (*service, error) {
	s := &service{d: d, srv: newServer(d)}
	rs, addr, err := s.srv.Start(context.Background(), "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start loopback server: %w", err)
	}
	s.rs = rs
	for c := 0; c < wireConns; c++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cl := client.New(addr, fmt.Sprintf("tenant%d", c))
		cl.HTTP = &http.Client{Transport: tr}
		if _, err := cl.Health(context.Background()); err != nil {
			s.stop()
			return nil, fmt.Errorf("open connection %d: %w", c, err)
		}
		s.clients = append(s.clients, cl)
		s.tr = append(s.tr, tr)
	}
	return s, nil
}

// stop drains the admission gates, closes the client connections and
// shuts the listener down, waiting until the serve goroutine has ended.
func (s *service) stop() {
	s.srv.Drain()
	for _, tr := range s.tr {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.rs.Shutdown(ctx); err != nil {
		s.rs.Close() //nolint:errcheck // forced close after a failed drain
	}
	s.rs.Wait() //nolint:errcheck // drain error already handled above
}

// request is query i's wire form: only what wire.QueryRequest can say.
func (d *dataset) request(i int) wire.QueryRequest {
	s := &d.w.shapes[d.w.shapeOf(i)]
	return wire.QueryRequest{
		RA:           s.ra,
		Quota:        s.quota,
		HardDeadline: d.w.hard,
		Seed:         d.seed + int64(i),
		Stream:       true,
	}
}

// query sends query i on caller's connection and waits for the terminal
// event (closed loop). A stream without a result event is an error.
func (s *service) query(caller, i int) (outcome, wireTiming, error) {
	ev, err := s.clients[caller].Query(context.Background(), s.d.request(i), nil)
	if err != nil {
		return outcome{}, wireTiming{}, err
	}
	return outcome{
		value: ev.Value, interval: ev.Interval, stages: ev.Stages, blocks: ev.Blocks,
		elapsed: ev.Elapsed, utilization: ev.Utilization, overspent: ev.Overspent,
	}, timingOf(ev), nil
}

// rejects sums the server's per-tenant rejection counters.
func (s *service) rejects() int64 {
	var n int64
	for k, v := range s.srv.Registry().Snapshot().Counters {
		if strings.HasPrefix(k, "server_rejects") {
			n += v
		}
	}
	return n
}

// sloMissFrac reads /slo the way an operator would and returns
// misses ÷ (hits + misses) over all tenants.
func (s *service) sloMissFrac() (float64, error) {
	resp, err := s.clients[0].HTTP.Get(s.clients[0].BaseURL + "/slo")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rep telemetry.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return 0, fmt.Errorf("decode /slo: %w", err)
	}
	var hits, misses int64
	for _, t := range rep.Tenants {
		hits += t.Hits
		misses += t.Misses
	}
	if hits+misses == 0 {
		return 0, nil
	}
	return float64(misses) / float64(hits+misses), nil
}
