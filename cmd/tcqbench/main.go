// Command tcqbench regenerates the paper's evaluation tables
// (Figures 5.1–5.3 of "Processing Aggregate Relational Queries with
// Hard Time Constraints", SIGMOD 1989) and this repo's ablations on the
// simulated machine.
//
// Usage:
//
//	tcqbench                         # run every experiment, 200 trials each
//	tcqbench -exp fig5.3 -trials 50  # one table, fewer trials
//	tcqbench -list                   # list experiment ids
//	tcqbench -compare                # include the paper's reported numbers
//	tcqbench -quality                # estimator-quality sweep instead
//	tcqbench -catalog -              # sample-catalog cold/warm reuse report
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"tcq/internal/bench"
	"tcq/internal/calib"
	"tcq/internal/telemetry"
	"tcq/internal/trace"
)

func main() {
	// Ctrl-C (or SIGTERM) cancels the context, which gracefully drains
	// the -serve telemetry listener instead of leaking it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcqbench:", err)
		os.Exit(1)
	}
}

// run parses args and executes the requested experiments, writing
// tables to out.
func run(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("tcqbench", flag.ContinueOnError)
	flag.SetOutput(out)
	var (
		expID      = flag.String("exp", "all", "experiment id(s), comma-separated (see -list), or 'all'")
		trials     = flag.Int("trials", 200, "independent trials per table row (the paper uses 200)")
		seed       = flag.Int64("seed", 1, "base random seed")
		jitter     = flag.Float64("jitter", 0.03, "per-charge clock jitter (stddev)")
		load       = flag.Float64("load", 0.12, "per-stage system-load lognormal sigma")
		compare    = flag.Bool("compare", false, "print the paper's reported numbers after each table")
		quality    = flag.Bool("quality", false, "run the estimator-quality sweep instead of the tables")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		md         = flag.Bool("md", false, "render tables as markdown (for EXPERIMENTS.md)")
		catalogOut = flag.String("catalog", "", "run the sample-catalog cold/warm reuse protocol instead of the tables and write the hit/miss report to this file ('-' for stdout)")
		traceOut   = flag.String("trace", "", "write a JSON-lines stage trace of every trial to this file ('-' for stdout)")
		calibOut   = flag.String("calib", "", "audit every trial's CI against the full-scan truth and write a calibration report to this file ('-' for stdout)")
		parallel   = flag.Int("parallel", 1, "per-query term-evaluation workers (byte-identical output for any value)")
		serve      = flag.String("serve", "", "serve live telemetry (/metrics, /queries, /history, pprof) on this address, e.g. :9100")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range bench.AllExperiments() {
			fmt.Fprintf(out, "%-22s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opts := bench.RunOptions{Trials: *trials, BaseSeed: *seed, Jitter: *jitter, LoadSigma: *load, EngineParallel: *parallel}

	if *quality {
		rows, err := bench.EstimatorQuality(opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.RenderQuality(rows))
		return nil
	}

	var exps []bench.Experiment
	if *expID == "all" {
		exps = bench.AllExperiments()
	} else {
		for _, id := range strings.Split(*expID, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			exps = append(exps, e)
		}
	}

	if *catalogOut != "" {
		return runCatalog(exps, opts, out, *catalogOut)
	}

	// With -trace or -calib, every trial records into its own collector;
	// after the (concurrent) runs the collectors are replayed in
	// deterministic order — experiment, then variant, then trial — so
	// the output is byte-identical for a given seed. -calib additionally
	// records each trial's full-scan ground truth so the replay can
	// audit every CI against it.
	var collectors map[string]*trace.Collector
	var truths map[string]int64
	var mu sync.Mutex
	if *traceOut != "" || *calibOut != "" {
		collectors = make(map[string]*trace.Collector)
		opts.TraceSink = func(exp, label string, trial int) trace.Tracer {
			c := trace.NewCollector()
			mu.Lock()
			collectors[traceKey(exp, label, trial)] = c
			mu.Unlock()
			return c
		}
	}
	if *calibOut != "" {
		truths = make(map[string]int64)
		opts.TruthSink = func(exp, label string, trial int, truth int64) {
			mu.Lock()
			truths[traceKey(exp, label, trial)] = truth
			mu.Unlock()
		}
	}

	// With -serve, a telemetry server exports live harness state while
	// the experiments run: aggregate engine counters on /metrics and a
	// per-trial progress record (labelled exp/variant#trial) on /queries.
	// Trial tracers are composed so -trace and -serve stack.
	if *serve != "" {
		metrics := trace.NewRegistry()
		opts.Metrics = metrics
		progress := telemetry.NewRegistry(256)
		inner := opts.TraceSink
		opts.TraceSink = func(exp, label string, trial int) trace.Tracer {
			h := progress.Track(fmt.Sprintf("%s/%s#%d", exp, label, trial))
			if inner == nil {
				return h
			}
			return trialTracer{Tracer: trace.Combine(inner(exp, label, trial), h), h: h}
		}
		srv, addr, err := telemetry.Serve(ctx, telemetry.Sources{Progress: progress, Reg: metrics}, *serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "telemetry: http://%s/ (metrics, queries, history, pprof)\n", addr)
	}

	for i, e := range exps {
		start := time.Now()
		rows, err := e.Run(opts)
		if err != nil {
			return err
		}
		if *md {
			fmt.Fprint(out, bench.RenderMarkdown(e.Title, rows))
		} else {
			fmt.Fprint(out, bench.Render(e.Title, rows))
		}
		if *compare {
			fmt.Fprintf(out, "paper: %s\n", e.PaperNote)
		}
		fmt.Fprintf(out, "(%d trials/row, %.1fs wall)\n", *trials, time.Since(start).Seconds())
		if i < len(exps)-1 {
			fmt.Fprintln(out)
		}
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, exps, *trials, collectors, out); err != nil {
			return err
		}
	}
	if *calibOut != "" {
		if err := writeCalibration(*calibOut, exps, *trials, collectors, truths, out); err != nil {
			return err
		}
	}
	return nil
}

// writeCalibration replays the per-trial collectors into a calibration
// auditor in experiment → variant → trial order (labelled
// exp/variant#trial, with each trial's full-scan count as ground truth)
// and writes the rendered report. The replay order is fixed, so the
// report — flight-recorder contents included — is byte-identical for a
// given seed no matter how the trials were scheduled.
func writeCalibration(path string, exps []bench.Experiment, trials int, collectors map[string]*trace.Collector, truths map[string]int64, out io.Writer) error {
	a := calib.NewAuditor(calib.Config{FlightSize: 64})
	audited := 0
	for _, e := range exps {
		for _, v := range e.Variants {
			for trial := 0; trial < trials; trial++ {
				key := traceKey(e.ID, v.Label, trial)
				c := collectors[key]
				if c == nil {
					continue
				}
				var gt *calib.Truth
				if t, ok := truths[key]; ok {
					gt = &calib.Truth{Value: float64(t), Level: 0.95}
				}
				p := a.Track(fmt.Sprintf("%s/%s#%d", e.ID, v.Label, trial), gt)
				c.Trace().Replay(p)
				audited++
			}
		}
	}
	rendered := calib.RenderReport(a.Report())
	if path == "-" {
		fmt.Fprint(out, rendered)
		return nil
	}
	if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote calibration report (%d trials audited) to %s\n", audited, path)
	return nil
}

// trialTracer pairs a trial's combined tracer chain with its telemetry
// handle so the bench harness can Discard the handle when a trial
// errors before EndQuery — otherwise the failed trial would sit in the
// in-flight set and show as permanently running on /queries.
type trialTracer struct {
	trace.Tracer
	h *telemetry.Handle
}

func (t trialTracer) Discard() { t.h.Discard() }

func traceKey(exp, label string, trial int) string {
	return fmt.Sprintf("%s\x00%s\x00%d", exp, label, trial)
}

// writeTraces replays the per-trial collectors into one JSON-lines file
// in experiment → variant → trial order.
func writeTraces(path string, exps []bench.Experiment, trials int, collectors map[string]*trace.Collector, out io.Writer) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	jl := trace.NewJSONLines(w)
	records := 0
	for _, e := range exps {
		jl.Exp = e.ID
		for _, v := range e.Variants {
			jl.Label = v.Label
			for trial := 0; trial < trials; trial++ {
				c := collectors[traceKey(e.ID, v.Label, trial)]
				if c == nil {
					continue
				}
				jl.Trial = trial
				c.Trace().Replay(jl)
				records++
			}
		}
	}
	if err := jl.Err(); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(out, "wrote %d query traces to %s\n", records, path)
	}
	return nil
}

// runCatalog executes each experiment's cold-run/warm-rerun catalog
// protocol and writes the hit/miss reuse report. Every trial builds its
// own catalog and the rows are reduced in trial order, so the report is
// byte-identical for a given seed at any -parallel worker count.
func runCatalog(exps []bench.Experiment, opts bench.RunOptions, out io.Writer, path string) error {
	var b strings.Builder
	for i, e := range exps {
		rows, err := e.RunCatalog(opts)
		if err != nil {
			return err
		}
		b.WriteString(bench.RenderCatalog(e.Title, rows))
		if i < len(exps)-1 {
			b.WriteString("\n")
		}
	}
	if path == "-" {
		fmt.Fprint(out, b.String())
		return nil
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote catalog reuse report to %s\n", path)
	return nil
}
