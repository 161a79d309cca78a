package run_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dsmc"
)

// These tests drive the scheduler end to end with the replica job it
// runs in production: the public dsmc package lowers the sweep, hands
// run.Run its job function, and each job steps a real simulation.

func testScenario() dsmc.WedgeTunnel2D {
	sc := dsmc.PaperConfig()
	sc.GridNX, sc.GridNY = 48, 24
	sc.Wedge = dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	sc.ParticlesPerCell = 4
	sc.Workers = 1
	return sc
}

func scenarioSpec(t *testing.T, sc dsmc.Scenario) *dsmc.ScenarioSpec {
	t.Helper()
	ss, err := dsmc.NewScenarioSpec(sc)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func f64(v float64) *float64 { return &v }

func testSpec(t *testing.T) dsmc.SweepSpec {
	return dsmc.SweepSpec{
		Name:     "test",
		Scenario: scenarioSpec(t, testScenario()),
		Points: []dsmc.SweepPoint{
			{Name: "rarefied", MeanFreePath: f64(0.5)},
			{Name: "near-continuum", MeanFreePath: f64(0)},
		},
		Replicas:    3,
		WarmSteps:   8,
		SampleSteps: 8,
	}
}

func runSweep(t *testing.T, spec dsmc.SweepSpec) *dsmc.SweepResult {
	t.Helper()
	res, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bitsEqual compares float64 values bit for bit (NaN-safe).
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func scalarEqual(a, b dsmc.ScalarStats) bool {
	return bitsEqual(a.Mean, b.Mean) && bitsEqual(a.Variance, b.Variance) &&
		bitsEqual(a.CI95, b.CI95) && a.N == b.N && a.Dropped == b.Dropped
}

func colsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func aggEqual(a, b *dsmc.PointResult) bool {
	if a.Name != b.Name || a.Replicas != b.Replicas ||
		len(a.Fields) != len(b.Fields) {
		return false
	}
	for q, fa := range a.Fields {
		fb, ok := b.Fields[q]
		if !ok || !colsEqual(fa.Mean, fb.Mean) ||
			!colsEqual(fa.Variance, fb.Variance) || !colsEqual(fa.CI95, fb.CI95) {
			return false
		}
	}
	return scalarEqual(a.ShockAngleDeg, b.ShockAngleDeg) &&
		scalarEqual(a.Collisions, b.Collisions) &&
		scalarEqual(a.NFlow, b.NFlow)
}

// TestPoolSizeDeterminism: the same sweep at pool sizes 1 and 8 yields
// byte-identical aggregates — pool size only changes scheduling, and
// aggregation merges in replica-index order inside the point fan-in.
func TestPoolSizeDeterminism(t *testing.T) {
	var got [2]*dsmc.SweepResult
	for i, pool := range []int{1, 8} {
		spec := testSpec(t)
		spec.Pool = pool
		got[i] = runSweep(t, spec)
	}
	for k := range got[0].Points {
		if !aggEqual(&got[0].Points[k], &got[1].Points[k]) {
			t.Errorf("aggregate %q differs between pool 1 and pool 8",
				got[0].Points[k].Name)
		}
	}
}

// TestCheckpointResumeBitIdentity: cancel a checkpointed sweep mid-
// flight, re-run it from the checkpoint directory, and require the
// aggregates to match an uninterrupted run bit for bit.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	spec := testSpec(t)
	spec.Points = spec.Points[:1]
	spec.Replicas = 2
	spec.Pool = 2

	straight := runSweep(t, spec)

	interrupted := spec
	interrupted.CheckpointDir = t.TempDir()
	interrupted.CheckpointEvery = 4

	ctx, cancel := context.WithCancel(context.Background())
	var sawCheckpointableProgress atomic.Bool
	_, err := dsmc.RunSweep(ctx, interrupted, func(e dsmc.SweepEvent) {
		// Cancel once any job has committed at least one checkpoint but
		// none can have finished (total is 16 steps, checkpoint every 4).
		if e.Type == "job-progress" && e.StepsDone >= 4 && e.StepsDone < e.StepsTotal {
			sawCheckpointableProgress.Store(true)
			cancel()
		}
	})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !sawCheckpointableProgress.Load() {
		t.Fatal("test never observed mid-job progress; cannot exercise resume")
	}

	resumed := runSweep(t, interrupted)
	if !aggEqual(&straight.Points[0], &resumed.Points[0]) {
		t.Error("killed+resumed sweep aggregates differ from uninterrupted run")
	}

	// A second resume (all checkpoints now complete) recomputes the same
	// result from the final checkpoints without re-stepping.
	again := runSweep(t, interrupted)
	if !aggEqual(&straight.Points[0], &again.Points[0]) {
		t.Error("re-resumed aggregates differ")
	}
}

// TestFloat32Jobs: the scheduler dispatches float32 scenarios and they
// aggregate deterministically too.
func TestFloat32Jobs(t *testing.T) {
	sc := testScenario()
	sc.Precision = dsmc.Float32
	spec := testSpec(t)
	spec.Scenario = scenarioSpec(t, sc)
	spec.Points = []dsmc.SweepPoint{{Name: "rarefied-f32", MeanFreePath: f64(0.5)}}
	spec.Replicas = 2
	var got [2]*dsmc.SweepResult
	for i, pool := range []int{1, 4} {
		spec.Pool = pool
		got[i] = runSweep(t, spec)
	}
	if !aggEqual(&got[0].Points[0], &got[1].Points[0]) {
		t.Error("float32 aggregates differ across pool sizes")
	}
}

// ckptSpec is a one-job sweep checkpointing every 4 steps into dir.
func ckptSpec(t *testing.T, dir string) dsmc.SweepSpec {
	spec := testSpec(t)
	spec.Points = spec.Points[:1]
	spec.Replicas = 1
	spec.CheckpointDir = dir
	spec.CheckpointEvery = 4
	return spec
}

// TestCorruptCheckpointFallsBackToFreshRun: a torn or damaged job
// checkpoint (detected by the whole-file checksum before any state is
// applied) is discarded and the job recomputes from scratch — same bits,
// no permanently wedged sweep — instead of failing the run.
func TestCorruptCheckpointFallsBackToFreshRun(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec(t, dir)
	plain := spec
	plain.CheckpointDir = ""
	straight := runSweep(t, plain)

	runSweep(t, spec)
	path := filepath.Join(dir, "job-s000-r000.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run over corrupt checkpoint failed instead of recomputing: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("corrupt checkpoint was neither removed nor rewritten")
	}
	if !aggEqual(&straight.Points[0], &res.Points[0]) {
		t.Error("fresh recomputation after corruption drifted from the straight run")
	}
	// Truncation (the torn-write shape) falls back the same way.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run over truncated checkpoint failed: %v", err)
	}
	if !aggEqual(&straight.Points[0], &res.Points[0]) {
		t.Error("recomputation after truncation drifted from the straight run")
	}
}

// TestStaleVersionCheckpointFallsBackToFreshRun: a structurally intact
// job checkpoint from a different format version (pre-upgrade leftovers)
// is discarded and recomputed fresh — bit-identically — instead of
// failing the sweep.
func TestStaleVersionCheckpointFallsBackToFreshRun(t *testing.T) {
	dir := t.TempDir()
	spec := ckptSpec(t, dir)
	plain := spec
	plain.CheckpointDir = ""
	straight := runSweep(t, plain)

	runSweep(t, spec)
	// Rewrite the header's version word to a foreign value and re-seal
	// the checksum trailer, simulating a checkpoint from another format
	// version that is otherwise intact.
	path := filepath.Join(dir, "job-s000-r000.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(raw[8:16], 999)
	h := fnv.New64a()
	h.Write(raw[:len(raw)-8])
	binary.LittleEndian.PutUint64(raw[len(raw)-8:], h.Sum64())
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("run over stale-version checkpoint failed instead of recomputing: %v", err)
	}
	if !aggEqual(&straight.Points[0], &res.Points[0]) {
		t.Error("recomputation after version mismatch drifted from the straight run")
	}
}

// TestCheckpointSeedMismatchRejected: a checkpoint directory reused by a
// different base seed is rejected rather than silently blended.
func TestCheckpointSeedMismatchRejected(t *testing.T) {
	spec := ckptSpec(t, t.TempDir())
	runSweep(t, spec)
	sc := testScenario()
	sc.Seed++
	spec.Scenario = scenarioSpec(t, sc)
	if _, err := dsmc.RunSweep(context.Background(), spec, nil); err == nil {
		t.Error("checkpoint from a different base seed was accepted")
	}
}

// TestCheckpointSpecChangeRejected: reusing a checkpoint directory after
// the step budget or physics knobs changed is a hard error — the old
// state must never be served as the new spec's result.
func TestCheckpointSpecChangeRejected(t *testing.T) {
	base := ckptSpec(t, t.TempDir())
	runSweep(t, base)
	scenario := func(mutate func(*dsmc.WedgeTunnel2D)) func(*dsmc.SweepSpec) {
		return func(spec *dsmc.SweepSpec) {
			sc := testScenario()
			mutate(&sc)
			spec.Scenario = scenarioSpec(t, sc)
		}
	}
	mutations := []struct {
		name   string
		mutate func(*dsmc.SweepSpec)
	}{
		{"warm-steps", func(spec *dsmc.SweepSpec) { spec.WarmSteps = 2 }},
		{"sample-steps", func(spec *dsmc.SweepSpec) { spec.SampleSteps = 4 }},
		{"lambda", func(spec *dsmc.SweepSpec) { spec.Points[0].MeanFreePath = f64(0) }},
		{"density", scenario(func(sc *dsmc.WedgeTunnel2D) { sc.ParticlesPerCell = 5 })},
		{"precision", scenario(func(sc *dsmc.WedgeTunnel2D) { sc.Precision = dsmc.Float32 })},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			spec := base
			spec.Points = append([]dsmc.SweepPoint(nil), base.Points...)
			m.mutate(&spec)
			if _, err := dsmc.RunSweep(context.Background(), spec, nil); err == nil {
				t.Error("changed spec resumed over the old checkpoint directory")
			}
		})
	}
}
