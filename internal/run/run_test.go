package run

import (
	"context"
	"errors"
	"math"
	"testing"
)

// testSpec is a two-point sweep for the synthetic job below.
func testSpec() Spec {
	return Spec{
		Name:        "test",
		Points:      []Point{{Name: "rarefied", Fp: 1}, {Name: "near-continuum", Fp: 2}},
		Replicas:    3,
		WarmSteps:   8,
		SampleSteps: 8,
		BaseSeed:    1988,
	}
}

// synthJob is a job function without a simulation: its output is a pure
// function of the job seed, and it reports progress once per step.
func synthJob(_ context.Context, j Job, _ CkptStore, progress func(done, total int)) (*ReplicaResult, error) {
	seed := JobSeed(1988, j.Point, j.Replica)
	for done := 0; done <= j.StepsTotal; done++ {
		progress(done, j.StepsTotal)
	}
	v := float64(seed%1000) / 1000
	return &ReplicaResult{
		Fields:        map[string][]float64{"density": {v, 2 * v}},
		ShockAngleDeg: 40 + v,
		Collisions:    int64(seed % 97),
		NFlow:         int(seed % 89),
	}, nil
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

func TestJobSeedsDistinctAcrossScenariosAndReplicas(t *testing.T) {
	seen := map[uint64]string{}
	for si := 0; si < 64; si++ {
		for r := 0; r < 64; r++ {
			s := JobSeed(1988, si, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and s%d/r%d", prev, si, r)
			}
			seen[s] = ""
		}
	}
}

// TestRunSpecValidation: broken specs fail before any job runs.
func TestRunSpecValidation(t *testing.T) {
	mutate := []func(*Spec){
		func(sp *Spec) { sp.Points = nil },
		func(sp *Spec) { sp.Replicas = 0 },
		func(sp *Spec) { sp.SampleSteps = 0 },
		func(sp *Spec) { sp.WarmSteps = -1 },
		func(sp *Spec) { sp.Points[1].Name = sp.Points[0].Name },
		func(sp *Spec) { sp.Points[0].Name = "" },
		func(sp *Spec) { sp.Quantities = []string{"pressure"} },
	}
	for i, m := range mutate {
		sp := testSpec()
		m(&sp)
		ran := false
		job := func(ctx context.Context, j Job, ck CkptStore, progress func(done, total int)) (*ReplicaResult, error) {
			ran = true
			return synthJob(ctx, j, ck, progress)
		}
		if _, err := Run(context.Background(), sp, job, nil); err == nil || ran {
			t.Errorf("mutation %d: invalid spec ran (err %v)", i, err)
		}
	}
}

// TestRunFailureSkipsAggregate: a job that fails fails the sweep with
// an error that wraps the job's own, emits exactly one job-failed, skips
// its point's aggregate, and starts nothing after the failure.
func TestRunFailureSkipsAggregate(t *testing.T) {
	errJob := errors.New("replica 0 failed")
	sp := testSpec()
	sp.Points = sp.Points[:1]
	sp.Replicas = 2
	sp.Pool = 1
	job := func(ctx context.Context, j Job, ck CkptStore, progress func(done, total int)) (*ReplicaResult, error) {
		if j.Replica == 0 {
			return nil, errJob
		}
		return synthJob(ctx, j, ck, progress)
	}
	var events []Event
	_, err := Run(context.Background(), sp, job, func(e Event) { events = append(events, e) })
	if !errors.Is(err, errJob) {
		t.Fatalf("error %v does not wrap the job's error", err)
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
	sp := testSpec() // 2 points x 3 replicas = 6 jobs
	sp.WarmSteps, sp.SampleSteps = 2, 2
	sp.Pool = 2
	running, peak := 0, 0
	_, err := Run(context.Background(), sp, synthJob, func(e Event) {
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
