// Command benchmark is the repository's benchmark: four workloads,
// end-to-end metrics measured through the two public surfaces
// (tcq.DB.CountEstimate and the HTTP wire), and a per-layer ledger
// measured from outside by a separate traced run. See README.md.
//
// The driver contract (BENCHMARK.json) runs one workload at a time:
//
//	bash benchmark/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
//
// and reads the last line of standard output, one JSON object. Without
// --trace the command runs the untraced and the traced run of every
// workload (or the one named) and prints a full report; -calibrate K
// repeats the untraced runs K times and prints their spread against
// the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// environment stamps a report with where its numbers came from.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Conns      int     `json:"wire_connections"`
	Smoke      bool    `json:"smoke"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// minSeconds is the shortest measured phase the harness accepts outside
// -smoke: below it the p99 has too few samples beyond it and one GC
// cycle more or less moves the throughput.
const minSeconds = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadName := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Int64("seed", 1, "drives data generation and the per-query sampling seeds (seed+i); 7 is the held-out seed")
	seconds := fs.Float64("seconds", 20, "length of a run's measured phases")
	traceMode := fs.String("trace", "", "driver mode: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics; empty = both, as a report")
	smoke := fs.Bool("smoke", false, "a few hundred queries per workload: checks the harness, measures nothing")
	outPath := fs.String("out", "", "also write the report as JSON to this file")
	calibrate := fs.Int("calibrate", 0, "run the untraced runs K times (5 is a good K) and print each metric's run-to-run spread against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds, Conns: wireConns, Smoke: *smoke,
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []*workload{w}
	}
	if err := guard(env, selected); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	switch {
	case *calibrate > 0:
		return runCalibrate(stdout, stderr, selected, cfg, *calibrate)
	case *traceMode != "":
		if len(selected) != 1 || (*traceMode != "0" && *traceMode != "1") {
			fmt.Fprintln(stderr, "benchmark: --trace takes 0 or 1 and needs --workload")
			return 2
		}
		return runDriver(stdout, stderr, selected[0], cfg, env, *traceMode == "1")
	default:
		return runReport(stdout, stderr, selected, cfg, env, *outPath)
	}
}

// guard refuses configurations whose numbers would not mean what the
// report says they mean.
func guard(env environment, selected []*workload) error {
	if env.GOMAXPROCS > env.NProc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs present: callers would time-share", env.GOMAXPROCS, env.NProc)
	}
	for _, w := range selected {
		if w.wire && env.Conns > env.NProc {
			return fmt.Errorf("%s: %d connections on %d CPUs: the load generator would queue behind itself", w.name, env.Conns, env.NProc)
		}
	}
	if !env.Smoke && env.Seconds < minSeconds {
		return fmt.Errorf("--seconds %g is below the %d s a measured phase needs (use -smoke to exercise the harness)", env.Seconds, minSeconds)
	}
	return nil
}

// driverLine is the contract's result object.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDriver is one run of one workload for the benchmark driver: human
// readable lines first, the result object last.
func runDriver(stdout, stderr io.Writer, w *workload, cfg runConfig, env environment, traced bool) int {
	printEnv(stdout, env)
	var line driverLine
	if traced {
		res, err := runTraced(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printTraced(stdout, res)
		line = driverLine{allOK(res.Checks), res.Attempted, res.Failed, res.Metrics}
	} else {
		res, err := runEndToEnd(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printEndToEnd(stdout, w, res)
		// The contract takes failures as fields of the line and wants no
		// metric that is always 0.
		delete(res.Metrics, "failed_frac")
		line = driverLine{allOK(res.Checks), res.Attempted, res.Failed, res.Metrics}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// report is the full-run output written by -out.
type report struct {
	Env       environment     `json:"environment"`
	EndToEnd  []*e2eResult    `json:"end_to_end"`
	PerLayer  []*tracedResult `json:"per_layer"`
	AllChecks bool            `json:"all_checks_pass"`
}

// runReport is the one command: every selected workload untraced, then
// traced, every metric by name with its unit, every check; non-zero
// exit if any check fails.
func runReport(stdout, stderr io.Writer, selected []*workload, cfg runConfig, env environment, outPath string) int {
	printEnv(stdout, env)
	rep := report{Env: env, AllChecks: true}
	for _, w := range selected {
		res, err := runEndToEnd(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		rep.EndToEnd = append(rep.EndToEnd, res)
		printEndToEnd(stdout, w, res)

		tr, err := runTraced(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		rep.PerLayer = append(rep.PerLayer, tr)
		printTraced(stdout, tr)
		rep.AllChecks = rep.AllChecks && allOK(res.Checks) && allOK(tr.Checks)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark: write report:", err)
			return 1
		}
	}
	if !rep.AllChecks {
		fmt.Fprintln(stdout, "FAIL: at least one correctness check failed")
		return 1
	}
	fmt.Fprintln(stdout, "all correctness checks passed")
	return 0
}

func printEnv(out io.Writer, env environment) {
	fmt.Fprintf(out, "environment: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g wire_connections=%d smoke=%v\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Seed, env.Seconds, env.Conns, env.Smoke)
}

// printMetrics prints ms by name, leaving out the names in skip.
func printMetrics(out io.Writer, title string, ms map[string]metric, skip []string) {
	fmt.Fprintf(out, "%s\n", title)
	names := make([]string, 0, len(ms))
	for name := range ms {
		if !slices.Contains(skip, name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "  %-28s %14.3f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// printEndToEnd prints one untraced run: every metric by name with its
// unit, the digest, the per-shape medians and the checks.
func printEndToEnd(out io.Writer, w *workload, res *e2eResult) {
	printMetrics(out, w.name, res.Metrics, nil)
	fmt.Fprintf(out, "  %-28s %s\n", "result_digest", res.Digest)
	fmt.Fprintf(out, "  %-28s %d in %.2f s; digest and simulated-clock metrics over the first %d\n",
		"timed queries", res.Attempted, res.TimedSeconds, res.Prefix)
	for _, s := range w.shapes {
		fmt.Fprintf(out, "  %-28s %14.3f us\n", "shape."+s.name+".p50_us", res.ShapeP50[s.name])
	}
	for _, c := range res.Checks {
		fmt.Fprintln(out, " ", c)
	}
}

// printTraced prints one traced run: the per-layer metrics, the walk's
// span table with each layer's share of the walk's core.count span,
// and the checks.
func printTraced(out io.Writer, tr *tracedResult) {
	printMetrics(out, tr.Workload+" (traced)", tr.Metrics, tr.NotMeasured)
	fmt.Fprintf(out, "  not measured on this workload (0 in the result object): %s\n", strings.Join(tr.NotMeasured, " "))
	if n := float64(tr.LedgerQueries); n > 0 {
		whole := findAgg(tr.Spans, spCount).Total
		fmt.Fprintf(out, "  spans over %d queries (per query; share of %s)\n", tr.LedgerQueries, spCount)
		for _, a := range tr.Spans {
			fmt.Fprintf(out, "    %-22s calls %6.2f  total %10.0f ns  self %10.0f ns  %5.1f%%\n",
				a.Name, float64(a.Count)/n, float64(a.Total)/n, float64(a.Self)/n, 100*float64(a.Total)/float64(whole))
		}
	}
	for _, c := range tr.Checks {
		fmt.Fprintln(out, " ", c)
	}
}

// benchmarkFile is the part of BENCHMARK.json -calibrate reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCalibrate measures run-to-run noise: K untraced runs per workload
// of the one seed — the same queries, so whatever differs between two
// runs is the box, not the data. It prints, per metric, median,
// quartiles, the distance between the quartiles and the range, both as
// a share of the median, and the bound; result_digest and the
// simulated-clock metrics must not differ at all. (The spread across
// seeds, which the driver's acceptance test uses, is measured by
// running the driver's command line once per seed; see README.md.)
func runCalibrate(stdout, stderr io.Writer, selected []*workload, cfg runConfig, k int) int {
	var bf benchmarkFile
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(b, &bf); err != nil {
			fmt.Fprintln(stderr, "benchmark: BENCHMARK.json:", err)
			return 1
		}
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	status := 0
	for _, w := range selected {
		values := map[string][]float64{}
		digest := ""
		for r := 0; r < k; r++ {
			res, err := runEndToEnd(w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			if !allOK(res.Checks) {
				for _, ch := range res.Checks {
					fmt.Fprintln(stdout, " ", ch)
				}
				status = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(stdout, "%s run %d: %d queries in %.2f s, digest %.12s\n", w.name, r+1, res.Attempted, res.TimedSeconds, res.Digest)
			if r > 0 && res.Digest != digest {
				fmt.Fprintf(stdout, "FAIL: %s: result_digest differs between runs of seed %d\n", w.name, cfg.seed)
				status = 1
			}
			digest = res.Digest
		}
		names := make([]string, 0, len(values))
		for name := range values {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "%s: %d runs of seed %d\n  %-18s %12s %12s %12s %9s %9s %7s\n", w.name, k, cfg.seed,
			"metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
		for _, name := range names {
			q1, q2, q3 := quartiles(values[name])
			s := sortedCopy(values[name])
			spread, rng := 0.0, 0.0
			if q2 != 0 {
				spread, rng = (q3-q1)/q2, (s[len(s)-1]-s[0])/q2
			}
			note := ""
			if b, ok := bounds[name]; ok && 2*spread > b {
				note = "  UNRESOLVED: bound below twice the spread"
			}
			if slices.Contains(simClockMetrics, name) && s[0] != s[len(s)-1] {
				note = "  FAIL: must repeat exactly"
				status = 1
			}
			fmt.Fprintf(stdout, "  %-18s %12.4f %12.4f %12.4f %9.4f %9.4f %7.3f%s\n",
				name, q2, q1, q3, spread, rng, bounds[name], note)
		}
	}
	return status
}

// simClockMetrics are the end-to-end metrics that live on the simulated
// clock: for a given seed they repeat exactly.
var simClockMetrics = []string{"risk_pct", "overshoot_p99_ms", "ci_coverage", "rel_err_mean", "utilization_mean", "blocks_per_query"}
