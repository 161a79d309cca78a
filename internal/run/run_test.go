package run

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dsmc/internal/geom"
	"dsmc/internal/sim"
)

func testScenario(name string, lambda float64, f32 bool) Scenario {
	cfg := sim.DefaultConfig(1)
	cfg.NX, cfg.NY = 48, 24
	cfg.Wedge = &geom.Wedge{LeadX: 10, Base: 12, Angle: 30 * math.Pi / 180}
	cfg.NPerCell = 4
	cfg.Free.Lambda = lambda
	cfg.Workers = 1
	return Scenario{Name: name, Sim: &cfg, Float32: f32}
}

func testSpec() Spec {
	return Spec{
		Name: "test",
		Scenarios: []Scenario{
			testScenario("rarefied", 0.5, false),
			testScenario("near-continuum", 0, false),
		},
		Replicas:    3,
		WarmSteps:   8,
		SampleSteps: 8,
		BaseSeed:    1988,
	}
}

// bitsEqual compares float64 values bit for bit (NaN-safe).
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func scalarEqual(a, b ScalarStats) bool {
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

func aggEqual(a, b *Aggregate) bool {
	if a.Scenario != b.Scenario || a.Replicas != b.Replicas ||
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
	var got [2]*Result
	for i, pool := range []int{1, 8} {
		sp := testSpec()
		sp.Pool = pool
		res, err := Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		got[i] = res
	}
	for k := range got[0].Aggregates {
		if !aggEqual(got[0].Aggregates[k], got[1].Aggregates[k]) {
			t.Errorf("aggregate %q differs between pool 1 and pool 8",
				got[0].Aggregates[k].Scenario)
		}
	}
}

// TestCompletionOrderIndependence completes one point's replicas
// through the core in reverse order and asserts the fan-in sees the
// same aggregate as the in-order completion: outputs are indexed by
// replica, never appended.
func TestCompletionOrderIndependence(t *testing.T) {
	const n = 6
	build := func(reverse bool) *Aggregate {
		jobs := make([]Job, n)
		for r := range jobs {
			jobs[r] = Job{ID: JobName("s", r), Replica: r, StepsTotal: 1, Scenario: "s"}
		}
		var agg *Aggregate
		core := NewCore(CoreConfig{})
		core.Add(Sweep{ID: "sw", Jobs: jobs, FanIn: func(_ int, outs []*ReplicaResult) {
			agg = aggregate("s", []string{"density", "temperature"}, outs)
		}})
		leases := make([]*Lease, n)
		for i := range leases {
			leases[i] = core.Poll("w")
		}
		for i := range leases {
			l := leases[i]
			if reverse {
				l = leases[n-1-i]
			}
			r := float64(l.Job.Replica)
			out := &ReplicaResult{
				Fields: map[string][]float64{
					"density":     {r, r * 0.5},
					"temperature": {1 + r, 2 * r},
				},
				ShockAngleDeg: 40 + r,
				Collisions:    int64(100 * r),
				NFlow:         1000 + l.Job.Replica,
			}
			if err := core.Complete(l.Sweep, l.Job.ID, l.LeaseID, out); err != nil {
				t.Fatal(err)
			}
		}
		return agg
	}
	a, b := build(false), build(true)
	if a == nil || b == nil {
		t.Fatal("the point never fanned in")
	}
	if !aggEqual(a, b) {
		t.Error("aggregate depends on completion order")
	}
}

// TestCheckpointResumeBitIdentity: cancel a checkpointed sweep mid-
// flight, re-run it from the checkpoint directory, and require the
// aggregates to match an uninterrupted run bit for bit.
func TestCheckpointResumeBitIdentity(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 2
	sp.Pool = 2

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	interrupted := sp
	interrupted.CheckpointDir = dir
	interrupted.CheckpointEvery = 4

	ctx, cancel := context.WithCancel(context.Background())
	var sawCheckpointableProgress atomic.Bool
	_, err = Run(ctx, interrupted, func(e Event) {
		// Cancel once any job has committed at least one checkpoint but
		// none can have finished (total is 16 steps, checkpoint every 4).
		if e.Type == EventJobProgress && e.StepsDone >= 4 && e.StepsDone < e.StepsTotal {
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

	resumed, err := Run(context.Background(), interrupted, nil)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], resumed.Aggregates[0]) {
		t.Error("killed+resumed sweep aggregates differ from uninterrupted run")
	}

	// A second resume (all checkpoints now complete) recomputes the same
	// result from the final checkpoints without re-stepping.
	again, err := Run(context.Background(), interrupted, nil)
	if err != nil {
		t.Fatalf("re-resume: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], again.Aggregates[0]) {
		t.Error("re-resumed aggregates differ")
	}
}

// TestFloat32Jobs: the orchestration layer dispatches float32 scenarios
// and they aggregate deterministically too.
func TestFloat32Jobs(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = []Scenario{testScenario("rarefied-f32", 0.5, true)}
	sp.Replicas = 2
	var got [2]*Result
	for i, pool := range []int{1, 4} {
		sp.Pool = pool
		res, err := Run(context.Background(), sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = res
	}
	if !aggEqual(got[0].Aggregates[0], got[1].Aggregates[0]) {
		t.Error("float32 aggregates differ across pool sizes")
	}
}

func TestJobSeedsDistinctAcrossScenariosAndReplicas(t *testing.T) {
	seen := map[uint64]string{}
	for si := 0; si < 64; si++ {
		for r := 0; r < 64; r++ {
			s := jobSeed(1988, si, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and s%d/r%d", prev, si, r)
			}
			seen[s] = ""
		}
	}
}

// TestRunSpecValidation: broken specs fail before any simulation runs.
func TestRunSpecValidation(t *testing.T) {
	mutate := []func(*Spec){
		func(sp *Spec) { sp.Scenarios = nil },
		func(sp *Spec) { sp.Replicas = 0 },
		func(sp *Spec) { sp.SampleSteps = 0 },
		func(sp *Spec) { sp.WarmSteps = -1 },
		func(sp *Spec) { sp.Scenarios[1].Name = sp.Scenarios[0].Name },
		func(sp *Spec) { sp.Scenarios[0].Sim.NPerCell = 0 },
	}
	for i, m := range mutate {
		sp := testSpec()
		m(&sp)
		if _, err := Run(context.Background(), sp, nil); err == nil {
			t.Errorf("mutation %d: invalid spec ran", i)
		}
	}
}

// TestCorruptCheckpointFallsBackToFreshRun: a torn or damaged job
// checkpoint (detected by the whole-file checksum before any state is
// applied) is discarded and the job recomputes from scratch — same bits,
// no permanently wedged sweep — instead of failing the run.
func TestCorruptCheckpointFallsBackToFreshRun(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	path := jobCkptPath(dir, 0, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatalf("run over corrupt checkpoint failed instead of recomputing: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("corrupt checkpoint was neither removed nor rewritten")
	}
	if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
		t.Error("fresh recomputation after corruption drifted from the straight run")
	}
	// Truncation (the torn-write shape) falls back the same way.
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatalf("run over truncated checkpoint failed: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
		t.Error("recomputation after truncation drifted from the straight run")
	}
}

// TestStaleVersionCheckpointFallsBackToFreshRun: a structurally intact
// job checkpoint from a different format version (pre-upgrade leftovers)
// is discarded and recomputed fresh — bit-identically — instead of
// failing the sweep.
func TestStaleVersionCheckpointFallsBackToFreshRun(t *testing.T) {
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1

	straight, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	// Rewrite the header's version word to a foreign value and re-seal
	// the checksum trailer, simulating a checkpoint from another format
	// version that is otherwise intact.
	path := jobCkptPath(dir, 0, 0)
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

	res, err := Run(context.Background(), sp, nil)
	if err != nil {
		t.Fatalf("run over stale-version checkpoint failed instead of recomputing: %v", err)
	}
	if !aggEqual(straight.Aggregates[0], res.Aggregates[0]) {
		t.Error("recomputation after version mismatch drifted from the straight run")
	}
}

// TestCheckpointSeedMismatchRejected: a checkpoint directory reused by a
// different base seed is rejected rather than silently blended.
func TestCheckpointSeedMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 1
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	if _, err := Run(context.Background(), sp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := filepath.Glob(filepath.Join(dir, "*.ckpt")); err != nil {
		t.Fatal(err)
	}
	sp.BaseSeed++
	if _, err := Run(context.Background(), sp, nil); err == nil {
		t.Error("checkpoint from a different base seed was accepted")
	}
}

// TestCheckpointSpecChangeRejected: reusing a checkpoint directory after
// the step budget or physics knobs changed is a hard error — the old
// state must never be served as the new spec's result.
func TestCheckpointSpecChangeRejected(t *testing.T) {
	base := testSpec()
	base.Scenarios = base.Scenarios[:1]
	base.Replicas = 1
	base.CheckpointDir = t.TempDir()
	base.CheckpointEvery = 4
	if _, err := Run(context.Background(), base, nil); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"warm-steps", func(sp *Spec) { sp.WarmSteps = 2 }},
		{"sample-steps", func(sp *Spec) { sp.SampleSteps = 4 }},
		{"lambda", func(sp *Spec) { sp.Scenarios[0].Sim.Free.Lambda = 0 }},
		{"density", func(sp *Spec) { sp.Scenarios[0].Sim.NPerCell = 5 }},
		{"precision", func(sp *Spec) { sp.Scenarios[0].Float32 = true }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			sp := base
			sp.Scenarios = append([]Scenario(nil), base.Scenarios...)
			// Deep-copy the config so a mutation cannot leak into the
			// base spec of the next subtest through the shared pointer.
			cfg := *base.Scenarios[0].Sim
			sp.Scenarios[0].Sim = &cfg
			m.mutate(&sp)
			if _, err := Run(context.Background(), sp, nil); err == nil {
				t.Error("changed spec resumed over the old checkpoint directory")
			}
		})
	}
}

// TestRunFailureSkipsAggregate: a job that fails (here on a checkpoint
// written for another seed) fails the sweep with an error that wraps
// the job's own, emits exactly one job-failed, skips its point's
// aggregate, and starts nothing after the failure.
func TestRunFailureSkipsAggregate(t *testing.T) {
	dir := t.TempDir()
	plant := testSpec()
	plant.Scenarios = plant.Scenarios[:1]
	plant.Replicas = 1
	plant.BaseSeed++
	plant.CheckpointDir = dir
	plant.CheckpointEvery = 4
	if _, err := Run(context.Background(), plant, nil); err != nil {
		t.Fatal(err)
	}

	sp := testSpec()
	sp.Scenarios = sp.Scenarios[:1]
	sp.Replicas = 2
	sp.Pool = 1
	sp.CheckpointDir = dir
	sp.CheckpointEvery = 4
	var events []Event
	_, err := Run(context.Background(), sp, func(e Event) { events = append(events, e) })
	if !errors.Is(err, errForeignCheckpoint) {
		t.Fatalf("error %v does not wrap the job's checkpoint error", err)
	}
	failed, failedAt := 0, -1
	for i, e := range events {
		if e.Type == EventJobFailed {
			failed++
			failedAt = i
		}
	}
	if failed != 1 {
		t.Fatalf("job-failed events: got %d, want 1", failed)
	}
	aggSkipped := false
	for _, e := range events[failedAt+1:] {
		if e.Type == EventJobStarted {
			t.Errorf("%s started after the failure", e.Job)
		}
		if e.Type == EventJobSkipped && e.Job == AggregateName("rarefied") {
			aggSkipped = true
		}
	}
	if !aggSkipped {
		t.Error("the failed point's aggregate was not reported skipped")
	}
}

// TestRunBoundedConcurrency: at most Pool jobs are between job-started
// and job-done at any time.
func TestRunBoundedConcurrency(t *testing.T) {
	sp := testSpec() // 2 scenarios x 3 replicas = 6 jobs
	sp.WarmSteps, sp.SampleSteps = 2, 2
	sp.Pool = 2
	running, peak := 0, 0
	_, err := Run(context.Background(), sp, func(e Event) {
		switch e.Type {
		case EventJobStarted:
			running++
			peak = max(peak, running)
		case EventJobDone:
			running--
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > sp.Pool {
		t.Errorf("observed %d jobs in flight, pool is %d", peak, sp.Pool)
	}
}
