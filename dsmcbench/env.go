package main

import (
	"fmt"
	"os"
)

// env is the state one workload run fills in: its metrics, its
// correctness checks and operation counts, and the span recorder.
type env struct {
	cfg config
	dir string // scratch directory, removed when the run ends
	tr  *tracer

	e2e   map[string]float64 // end-to-end metrics by name
	layer map[string]float64 // per-layer metrics by name
	info  map[string]any     // provenance details: sizes, sample counts

	checks            []checkResult
	attempted, failed int

	// Computed bytes moved by the move and sort phases and the phase
	// seconds they took, for the bandwidth fractions.
	moveBytes, moveSec float64
	sortBytes, sortSec float64
}

// checkResult is one correctness check as reported in the provenance.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

func newEnv(cfg config, dir string) *env {
	return &env{
		cfg: cfg, dir: dir, tr: newTracer(cfg.trace),
		e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{},
	}
}

// check records a correctness check as one attempted operation that
// fails when ok is false, or when the configuration forces it to fail.
func (e *env) check(name string, ok bool, format string, args ...any) bool {
	if name == e.cfg.failCheck {
		ok = false
	}
	e.checks = append(e.checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	e.ops(1, boolInt(!ok))
	if !ok {
		e.logf("check %s failed: %s", name, fmt.Sprintf(format, args...))
	}
	return ok
}

// ops counts attempted operations and the failed ones among them.
func (e *env) ops(attempted, failed int) {
	e.attempted += attempted
	e.failed += failed
}

// logf writes a progress line to standard error.
func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmcbench: "+format+"\n", args...)
}

// finishLayers fills the per-layer metrics that need the host's
// measured copy bandwidth.
func (e *env) finishLayers(h *host) {
	e.layer["host.copy_gbps"] = h.CopyGBps
	bw := h.CopyGBps * 1e9
	if e.moveSec > 0 && bw > 0 {
		e.layer["engine.move_bw_frac"] = e.moveBytes / e.moveSec / bw
	}
	if e.sortSec > 0 && bw > 0 {
		e.layer["engine.sort_bw_frac"] = e.sortBytes / e.sortSec / bw
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
