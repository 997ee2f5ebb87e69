#!/usr/bin/env bash
# Repo-wide CI gate: formatting, vet, build, race tests, the allocation
# guards, the simulated-determinism goldens, the tcqd loopback goldens,
# and the benchmark module's own tests and smoke run. Run from anywhere; takes
# no arguments. Host performance is measured by `bash benchmark/run.sh`
# (see benchmark/README.md), not here.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -ne 0 ]; then
  echo "usage: scripts/check.sh" >&2
  exit 2
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

# The allocation guards are built with //go:build !race (the race
# detector's instrumentation allocates), so the pass above never runs
# them: run them here, without it.
echo "== go test (allocation guards, no race detector)"
go test -count=1 -run 'Allocs|SteadyState' ./...

# The concurrency-heavy surfaces (concurrent engine use, the sched
# Controller, the metrics registry, the live telemetry registry and its
# HTTP server, the exec engine's lane record/replay and sub-term fan-out
# paths, and the per-DB pool of query arenas) get a second,
# cache-bypassing race pass so a cached
# "ok" from the run above can never mask an interleaving-dependent
# failure in exactly the code where interleavings matter.
echo "== go test -race -count=1 (concurrency surfaces)"
go test -race -count=1 \
  -run 'Concurrent|Parallel|Controller|Registry|Telemetry|Metrics|Serve|Lane|SubTerm|HardDeadline|Calib|Flight|Coverage|Ring|Wilson|Catalog|Stream|Drain|Reject|Tenant|SSE|Span|SLO|Retry|AdmitWait|Admission|NonStreaming|Scratch|Pool|Arena' \
  . ./internal/scratch ./internal/sched ./internal/trace ./internal/telemetry ./internal/calib \
  ./internal/stats ./internal/exec ./internal/core ./internal/bench \
  ./internal/catalog ./internal/server ./internal/client

# Everything tcqbench prints is a deterministic function of the seed, so
# every output has a golden and one loop checks them all. Each row of
# the table below is one tcqbench run at 8 trials: the experiments, an
# extra flag, and the golden for each output the run is checked against
# — the table on stdout (minus the wall-time and "wrote" lines), the
# -trace JSON-lines stage trace, the -calib calibration report, the
# -catalog reuse report. "-" means: flag not given / output not asked for.
#
# What the rows pin. Any executor change that perturbs the sequence of
# simulated-clock charges shows up in the tables and traces (fig5.2 is
# an intersection, fig5.3 the pure join; both are single-term queries,
# so their -parallel=4 rows exercise the sub-term tier). Parallel
# evaluation is invisible in every output. Calibration auditing rides
# the tracer chain read-only — table AND trace stay byte-identical with
# -calib on — and its report is itself deterministic, every shape
# verdict "ok" on the multi-figure report. The sample-catalog reuse
# report is byte-identical at any parallelism, and every other row runs
# with the catalog disabled: the standing proof that the feature did not
# perturb the default engine path.
echo "== determinism goldens (tables, traces, calibration, catalog; serial and -parallel=4)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/tcqbench" ./cmd/tcqbench
figs=fig5.1-1000,fig5.1-5000,fig5.2,fig5.3
while read -r exps flag table trace calib catalog; do
  args=(-exp "$exps" -trials 8)
  [ "$flag" = - ] || args+=("$flag")
  for out in trace calib catalog; do
    [ "${!out}" = - ] || args+=("-$out" "$tmp/$out.out")
  done
  "$tmp/tcqbench" "${args[@]}" > "$tmp/stdout"
  grep -v -e 'trials/row' -e '^wrote ' "$tmp/stdout" > "$tmp/table.out" || true
  for out in table trace calib catalog; do
    [ "${!out}" = - ] && continue
    if ! diff "testdata/${!out}" "$tmp/$out.out"; then
      echo "tcqbench ${args[*]}: $out diverged from testdata/${!out}" >&2
      exit 1
    fi
  done
done <<EOF
fig5.2 -           golden_fig52_t8.txt -                           -                         -
fig5.2 -           -                   golden_trace_fig52_t8.jsonl -                         -
fig5.2 -parallel=4 golden_fig52_t8.txt -                           -                         -
fig5.2 -parallel=4 -                   golden_trace_fig52_t8.jsonl -                         -
fig5.3 -           golden_fig53_t8.txt -                           -                         -
fig5.3 -           -                   golden_trace_fig53_t8.jsonl -                         -
fig5.3 -parallel=4 golden_fig53_t8.txt -                           -                         -
fig5.3 -parallel=4 -                   golden_trace_fig53_t8.jsonl -                         -
fig5.2 -           golden_fig52_t8.txt golden_trace_fig52_t8.jsonl golden_calib_fig52_t8.txt -
fig5.2 -parallel=4 golden_fig52_t8.txt golden_trace_fig52_t8.jsonl golden_calib_fig52_t8.txt -
$figs  -           -                   -                           golden_calib_t8.txt       -
$figs  -           -                   -                           -                         golden_catalog_t8.txt
$figs  -parallel=4 -                   -                           -                         golden_catalog_t8.txt
EOF

# The network service composes the same deterministic pieces: a tcqd
# on a simulated machine answers equal requests with equal seeds
# byte-identically, so a scripted tcqsh \connect session against a
# fresh loopback server is a golden. The transcript carries no
# addresses or wall-clock times (the ephemeral port appears only in
# the \connect input line, which non-interactive tcqsh does not echo);
# the SIGTERM at the end doubles as a graceful-drain smoke.
echo "== tcqd loopback smoke (deterministic serve golden)"
serve_dir=$tmp
serve_log="$serve_dir/tcqd.log"
go build -o "$serve_dir/tcqd" ./cmd/tcqd
"$serve_dir/tcqd" -addr 127.0.0.1:0 -gen "select orders 20000 2000" > "$serve_log" 2>&1 &
serve_pid=$!
for _ in $(seq 100); do
  grep -q 'listening on' "$serve_log" && break
  sleep 0.1
done
serve_addr=$(sed -n 's/^tcqd: listening on //p' "$serve_log")
if [ -z "$serve_addr" ]; then
  echo "tcqd never came up:" >&2; cat "$serve_log" >&2; exit 1
fi
smoke=$(printf '\\connect %s alice\nrels\ncount select(orders, a < 2000)\nestimate 2s select(orders, a < 2000)\nestsql 2s SELECT AVG(a) FROM orders WHERE a < 5000\n\\disconnect\nquit\n' "$serve_addr" | go run ./cmd/tcqsh)
kill -TERM "$serve_pid"
wait "$serve_pid"
if ! diff testdata/golden_serve_smoke.txt <(echo "$smoke"); then
  echo "serve transcript diverged from testdata/golden_serve_smoke.txt" >&2
  exit 1
fi
if ! grep -q 'tcqd: bye' "$serve_log"; then
  echo "tcqd did not drain cleanly on SIGTERM:" >&2; cat "$serve_log" >&2
  exit 1
fi

# The latency anatomy is golden-able the same way: a fresh tcqd (so
# the request counter starts at req-1) serves one traced estimate, and
# everything in the transcript except the span nanosecond values —
# request id, span names, span count, order, per-stage estimates — is
# a deterministic function of the seed. The sed pass normalizes the
# one nondeterministic ingredient (real wall-clock span durations) so
# the golden pins the anatomy's shape.
echo "== span anatomy smoke (deterministic span golden, ns normalized)"
span_log="$serve_dir/tcqd_spans.log"
"$serve_dir/tcqd" -addr 127.0.0.1:0 -gen "select orders 20000 2000" > "$span_log" 2>&1 &
span_pid=$!
for _ in $(seq 100); do
  grep -q 'listening on' "$span_log" && break
  sleep 0.1
done
span_addr=$(sed -n 's/^tcqd: listening on //p' "$span_log")
if [ -z "$span_addr" ]; then
  echo "span-smoke tcqd never came up:" >&2; cat "$span_log" >&2; exit 1
fi
spans=$(printf '\\connect %s alice\n\\trace on\nestimate 2s select(orders, a < 2000)\n\\disconnect\nquit\n' "$span_addr" \
  | go run ./cmd/tcqsh | sed -E 's/[0-9]+ns/_ns/g')
kill -TERM "$span_pid"
wait "$span_pid"
if ! diff testdata/golden_spans_smoke.txt <(echo "$spans"); then
  echo "span anatomy diverged from testdata/golden_spans_smoke.txt" >&2
  exit 1
fi

# The benchmark is a module of its own (benchmark/go.mod), so the
# `go test ./...` above does not reach it: vet it, run every workload
# untraced and traced in smoke size — its walk of Engine.Count's stage
# loop must still compile against internal/exec and still equal Count
# bit for bit — and run its tests.
#
# The tests come last because TestSmokeDriverContract is RED since PR 14
# and stays red until a benchmark PR guards one division: it needs every
# traced metric finite, benchmark/traced.go divides the collector's CPU
# by /cpu/classes/total, the runtime updates both only when a GC cycle
# ends, and a 300-query smoke phase now allocates ~1.5 MB (27 MB before
# the query arenas) — no cycle, 0/0. See CHANGES.md, PR 14.
echo "== benchmark module (vet, smoke, test)"
(cd benchmark && go vet .)
bash benchmark/run.sh -smoke > "$tmp/bench_smoke.out" || { cat "$tmp/bench_smoke.out" >&2; exit 1; }
(cd benchmark && go test .)

echo "OK"
