package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// dsmcdBin is a dsmcd binary built once for the dsmcd workload tests.
var dsmcdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dsmcbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "dsmcd")
	if out, err := exec.Command("go", "build", "-o", bin, "dsmc/cmd/dsmcd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building dsmcd: %v\n%s", err, out)
	} else {
		dsmcdBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyConfig is a test-sized run of one workload.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	if workload == "dsmcd" && dsmcdBin == "" {
		t.Fatal("dsmcd was not built")
	}
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, root: "..",
		dsmcd: dsmcdBin, workdir: t.TempDir(), tiny: true}
}

// runTiny executes a tiny run and returns its exit code and result.
func runTiny(t *testing.T, cfg config) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := execute(context.Background(), cfg, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last output line is not a result: %v\n%s", cfg.workload, err, out.String())
	}
	return code, res
}

func TestEveryMetricIsEmittedWithItsUnit(t *testing.T) {
	for _, w := range []string{"wedge", "tube3d", "ensemble", "dsmcd"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				_, res := runTiny(t, tinyConfig(t, w, trace))
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value):
						t.Errorf("metric %s is NaN", d.name)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d, want >= 1", res.Attempted)
				}
			})
		}
	}
}

func TestFailedCheckRaisesFailFracAndExitCode(t *testing.T) {
	for _, w := range []string{"ensemble", "dsmcd"} {
		t.Run(w, func(t *testing.T) {
			code, res := runTiny(t, tinyConfig(t, w, true))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Metrics["fail_frac"].Value != 0 {
				t.Fatalf("clean run: exit %d, correct %v, failed %d, fail_frac %v",
					code, res.Correct, res.Failed, res.Metrics["fail_frac"].Value)
			}
			cfg := tinyConfig(t, w, true)
			cfg.failCheck = w + "_shared_points_identical"
			code, bad := runTiny(t, cfg)
			if code == 0 || bad.Correct || bad.Failed != 1 {
				t.Errorf("forced failure: exit %d, correct %v, failed %d; want non-zero, false, 1", code, bad.Correct, bad.Failed)
			}
			if got := bad.Metrics["fail_frac"].Value; got <= 0 {
				t.Errorf("forced failure: fail_frac = %v, want > 0", got)
			}
		})
	}
}

func TestSelfTimesAndRemainderSumToWallTime(t *testing.T) {
	for _, w := range []string{"wedge", "ensemble", "dsmcd"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, true)
			e := newEnv(cfg, t.TempDir())
			root := e.tr.begin("workload."+w, 0)
			if err := workloads[w](context.Background(), e); err != nil {
				t.Fatal(err)
			}
			e.tr.finish(root)
			a := e.tr.attribute(root)
			total := a.remainder
			for l, s := range a.self {
				if !contains(traceLayers, l) {
					t.Errorf("span layer %q is not a reported layer", l)
				}
				total += s
			}
			if math.Abs(total-a.wall) > 1e-6*a.wall+1e-9 {
				t.Errorf("self times + remainder = %.9f s, wall = %.9f s", total, a.wall)
			}
		})
	}
}

func TestAttributionSplitsConcurrentSpans(t *testing.T) {
	tr := newTracer(true)
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("workload.x", 0, "r", at(0), at(100))
	sweep := tr.record("run.sweep", root, "", at(10), at(90))
	tr.record("run.job", sweep, "", at(20), at(60))   // alone 20-40, shared 40-60
	tr.record("store.hit", sweep, "", at(40), at(80)) // shared 40-60, alone 60-80
	a := tr.attribute(root)
	want := map[string]float64{"run": 0.020 + 0.010 + 0.020, "store": 0.010 + 0.020}
	for l, w := range want {
		if math.Abs(a.self[l]-w) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", l, a.self[l], w)
		}
	}
	if math.Abs(a.remainder-0.020) > 1e-9 || math.Abs(a.wall-0.1) > 1e-9 {
		t.Errorf("remainder %v, wall %v; want 0.02, 0.1", a.remainder, a.wall)
	}
}

func TestSweepSequenceFollowsTheSeed(t *testing.T) {
	pts := func(j int) int { return 2 + j%2 }
	reps := func(j int) int { return 2 + j%3 }
	a := genSweeps(11, 12, pts, reps, 4)
	b := genSweeps(11, 12, pts, reps, 4)
	c := genSweeps(12, 12, pts, reps, 4)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("the same seed gave different sweep sequences")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds gave the same sweep sequence")
	}
	for j, p := range a {
		if (p.repeatOf >= 0) != (j%4 == 3) {
			t.Errorf("sweep %d: repeatOf = %d", j, p.repeatOf)
		}
		if p.repeatOf >= 0 && p.reused != p.jobs() {
			t.Errorf("sweep %d repeats %d but reuses %d of %d jobs", j, p.repeatOf, p.reused, p.jobs())
		}
	}
}

func TestBenchmarkJSONNamesEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v; the benchmark runs %d", ws, len(workloads))
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if fmt.Sprint(c.listed) != fmt.Sprint(c.defs) {
			t.Errorf("BENCHMARK.json lists\n%v\nthe benchmark reports\n%v", c.listed, c.defs)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
