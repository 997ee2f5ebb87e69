package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var spec benchmarkSpec
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json stays inside the driver's limits and names exactly the
// workloads the program runs.
func TestBenchmarkFile(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds < minSeconds || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want %d..60", spec.RunSeconds, minSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range spec.PerLayer {
		if m.Bound != nil {
			t.Errorf("per-layer metric %q has a bound", m.Name)
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (unit s, better lower)")
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics: outside the driver's limits", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// Every workload, untraced and traced, in -smoke size through the
// driver's own command line: the last line of standard output is one
// JSON object with exactly the contract's keys, every metric
// BENCHMARK.json names is present with its unit and a finite value,
// nothing else is, and every correctness check passes.
func TestSmokeDriverContract(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		for _, tc := range []struct {
			trace string
			want  []metricSpec
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "20", "--trace", tc.trace, "-smoke"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s%s", w.Name, tc.trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s --trace %s: last line is not JSON: %v", w.Name, tc.trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s --trace %s: result object has %d keys, want correct, attempted, failed, metrics", w.Name, tc.trace, len(raw))
			}
			var line driverLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s --trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, tc.trace, line.Correct, line.Attempted, line.Failed, stdout.String())
			}
			if len(line.Metrics) != len(tc.want) {
				t.Errorf("%s --trace %s: %d metrics emitted, BENCHMARK.json lists %d", w.Name, tc.trace, len(line.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s --trace %s: metric %s missing", w.Name, tc.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s --trace %s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, tc.trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s --trace %s: metric %s = %v", w.Name, tc.trace, m.Name, got.Value)
				}
			}
		}
	}
}

// The same seed gives the same simulated-clock answers, run to run.
func TestSimClockMetricsRepeatExactly(t *testing.T) {
	w := findWorkload("paper-mix")
	cfg := runConfig{seed: 5, smoke: true}
	a, err := runEndToEnd(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEndToEnd(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("digests differ: %s vs %s", a.Digest, b.Digest)
	}
	for _, name := range simClockMetrics {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v vs %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	other, err := runEndToEnd(w, runConfig{seed: 6, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.Digest == a.Digest {
		t.Error("another seed gave the same digest: the seed does not reach the inputs")
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such"},
		{"--trace", "1"},                            // needs --workload
		{"--workload", "paper-mix", "--trace", "2"}, // 0 or 1
		{"--workload", "paper-mix", "--trace", "0", "--seconds", "3"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result", args)
		}
	}
}
