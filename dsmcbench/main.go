// Command dsmcbench is the repository's benchmark. It runs one workload
// against the public dsmc API, or against a dsmcd server built from the
// same tree, checks the workload's output for correctness, and prints
// one JSON result as the last line of standard output. run.sh builds it
// and the server first:
//
//	bash dsmcbench/run.sh --workload wedge --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With
// --trace 1 the benchmark records a span around every call it makes
// into the program and reports the per-layer metrics instead. The
// workloads, the metric definitions and the layer each metric belongs
// to are described in README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root: provenance and the source hash
	dsmcd    string // dsmcd binary (the dsmcd workload)
	workdir  string // parent of the run's scratch directory
	// tiny shrinks every workload to a test-sized run; the physics
	// checks are not expected to pass at that size.
	tiny bool
	// failCheck names a correctness check that is forced to fail, so
	// tests can see a failure reach fail_frac and the exit code.
	failCheck string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *env) error{
	"wedge":    runWedge,
	"tube3d":   runTube3D,
	"ensemble": runEnsemble,
	"dsmcd":    runDsmcd,
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"us_per_particle_step", "us"},
	{"time_to_field_s", "s"},
	{"jobs_per_min", "jobs/min"},
	{"submit_to_result_p50_s", "s"},
	{"submit_to_result_p90_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, on every workload. A layer
// that does no work on a workload reports 0 (see README.md).
var perLayer = []metricDef{
	{"engine.move_ns_pp", "ns"},
	{"engine.sort_ns_pp", "ns"},
	{"engine.select_ns_pp", "ns"},
	{"engine.collide_ns_pp", "ns"},
	{"engine.collisions_pp", "count"},
	{"engine.other_frac", "ratio"},
	{"engine.sample_ns_pp", "ns"},
	{"engine.move_bw_frac", "ratio"},
	{"engine.sort_bw_frac", "ratio"},
	{"host.copy_gbps", "GB/s"},
	{"sample.field_ms", "ms"},
	{"par.scaling_eff", "ratio"},
	{"ckpt.write_ms", "ms"},
	{"ckpt.restore_ms", "ms"},
	{"ckpt.bytes_pp", "B"},
	{"run.queue_wait_s_p50", "s"},
	{"run.job_s_p50", "s"},
	{"run.aggregate_ms_p50", "ms"},
	{"run.pool_busy_frac", "ratio"},
	{"store.hit_frac", "ratio"},
	{"store.publishes", "count"},
	{"store.bytes", "B"},
	{"coord.dispatch_wait_s_p50", "s"},
	{"coord.job_s_p50", "s"},
	{"coord.aggregate_ms_p50", "ms"},
	{"coord.grants_per_job", "ratio"},
	{"coord.retries", "count"},
	{"dsmcd.submit_ms_p50", "ms"},
	{"dsmcd.result_ms_p50", "ms"},
	{"dsmcd.not_modified_frac", "ratio"},
	{"obs.overhead_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.remainder_frac", "ratio"},
	{"fail_frac", "ratio"},
}

// traceLayers are the span layers whose share of the traced wall time
// is reported as trace.self_frac.<layer>.
var traceLayers = []string{
	"engine", "sample", "ckpt", "par", "obs",
	"run", "store", "coord", "dsmcd", "check",
}

func init() {
	for _, l := range traceLayers {
		perLayer = append(perLayer, metricDef{"trace.self_frac." + l, "ratio"})
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: wedge, tube3d, ensemble or dsmcd")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every input and simulation seed derives from it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measurement length the workload sizes its work for")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.dsmcd, "dsmcd", "", "dsmcd binary built from the tree under test")
	flag.StringVar(&cfg.workdir, "workdir", os.TempDir(), "directory for the run's scratch files")
	flag.Parse()
	cfg.trace = *trace == 1
	if _, ok := workloads[cfg.workload]; !ok || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "dsmcbench: need --workload wedge|tube3d|ensemble|dsmcd, --trace 0|1 and --seconds > 0\n")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	// A run must end within 180 s; a workload stuck past its deadline
	// fails instead, and its server and scratch files are still removed.
	ctx, cancel := context.WithTimeout(ctx, workloadDeadline)
	code := execute(ctx, cfg, os.Stdout)
	cancel()
	stop()
	os.Exit(code)
}

// execute runs one workload, prints its provenance, trace table and
// result, and returns the process exit code: 0 only when the workload
// ran and every correctness check passed.
func execute(ctx context.Context, cfg config, stdout io.Writer) int {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dsmcbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := newEnv(cfg, dir)
	steal0, total0 := cpuTicks()
	root := e.tr.begin("workload."+cfg.workload, 0)
	runErr := workloads[cfg.workload](ctx, e)
	e.tr.finish(root)
	// The share of the host's CPU time the hypervisor took during the
	// workload: a run-to-run noise source this benchmark cannot remove.
	if steal1, total1 := cpuTicks(); total1 > total0 {
		e.info["cpu_steal_frac"] = (steal1 - steal0) / (total1 - total0)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "dsmcbench: %s: %v\n", cfg.workload, runErr)
		e.attempted++
		e.failed++
	}
	if _, ok := e.e2e["peak_rss_mb"]; !ok {
		e.e2e["peak_rss_mb"] = float64(peakRSS(os.Getpid())) / (1 << 20)
	}

	host := hostInfo(cfg.root)
	host.measureCopy(cfg.tiny)
	e.finishLayers(host)
	if cfg.trace {
		e.finishTrace(root, stdout, dir)
	}
	prov := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"host": host, "info": e.info, "checks": e.checks,
	}
	if b, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Fprintf(stdout, "%s\n", b)
	}

	res := e.result(runErr == nil)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmcbench: encoding result:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// result assembles the output line from the run's metrics: the
// end-to-end set untraced, the per-layer set traced. A metric the run
// could not measure is reported as NaN-free 0 only for per-layer
// metrics; a missing end-to-end metric marks the run incorrect.
func (e *env) result(ran bool) result {
	defs, vals := endToEnd, e.e2e
	if e.cfg.trace {
		defs, vals = perLayer, e.layer
		if e.attempted > 0 {
			vals["fail_frac"] = float64(e.failed) / float64(e.attempted)
		}
	}
	out := result{Correct: ran && e.failed == 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: make(map[string]metric, len(defs))}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if !e.cfg.trace {
				out.Correct = false
				fmt.Fprintf(os.Stderr, "dsmcbench: metric %s was not measured\n", d.name)
				continue
			}
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// workloadDeadline bounds one workload's run.
const workloadDeadline = 150 * time.Second

// numWorkers is the worker count of every simulation and pool: the
// benchmark keeps its load within the two CPUs of the reference host.
const numWorkers = 2

// scaled sizes a count of repeated work units for the run's length:
// perSecond units per requested second, at least min.
func scaled(cfg config, perSecond float64, min int) int {
	n := int(math.Round(cfg.seconds * perSecond))
	if n < min {
		n = min
	}
	return n
}
