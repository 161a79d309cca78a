// Package run schedules and stores sweeps; it runs no simulation
// itself. An ensemble or parameter sweep is a two-level job graph:
// replica jobs fan out, and each point's aggregation fans in. The
// package holds the one executor for it, the job core (core.go): a
// lease state machine that registers sweeps, memoizes them against the
// result store, dispatches jobs in (point, replica) order under a pool
// bound, fences stale leases, retries or fails jobs, and fans each
// point in once its replicas are done. Run drives the core in process
// with a pool of goroutines and a job function supplied by its caller
// (the public dsmc package, which builds every replica on its
// Simulation); the distributed coordinator (internal/coord) puts the
// same core behind its HTTP protocol.
//
// The package sees a point only by name and trajectory fingerprint: a
// hash of everything that determines a replica's bits apart from its
// seed. The fingerprint keys the result store (memo.go); the fan-in
// merges replica outputs (agg.go); FileCkptStore persists a job's
// checkpoint bytes, whose contents only the job function reads.
//
// This is the outer level of parallelism the paper's single
// hand-launched runs lack: DSMC answers are statistical, so the
// production question is "run N replicas per sweep point, aggregate into
// mean/variance/CI, and serve the result", and whole-simulation jobs
// scale on multi-core hosts even where the inner worker sharding is
// bandwidth-bound.
//
// Determinism: every job derives its seed from the spec's base seed
// (JobSeed, collision-free by construction), jobs never share mutable
// state, and a point's fan-in merges replica results strictly in index
// order, so a sweep's aggregates are bit-identical for any pool size and
// any completion order, provided the job function is a pure function of
// its job.
package run

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"dsmc/internal/rng"
	"dsmc/internal/sample"
	"dsmc/internal/store"
)

// Point is one sweep point as the scheduler sees it: a name for events
// and results, and the trajectory fingerprint that keys its artifacts in
// the result store.
type Point struct {
	Name string
	// Fp hashes everything that determines a replica's trajectory apart
	// from its seed: the step budget and the point's physics.
	Fp uint64
}

// Spec describes an ensemble or sweep: one or more points, each run
// Replicas times. The zero value is not runnable; Validate reports why.
type Spec struct {
	// Name labels the sweep in events and results.
	Name string
	// Points are the sweep points (one point = a plain ensemble).
	Points []Point
	// Quantities are the sampled quantity slugs (sample.Q*) each replica
	// derives from its one-pass moment accumulation and each aggregate
	// carries per-cell statistics for; empty defaults to density alone.
	Quantities []string
	// Replicas is the number of independent replicas per point.
	Replicas int
	// WarmSteps runs before sampling starts; SampleSteps are accumulated.
	WarmSteps, SampleSteps int
	// BaseSeed seeds the per-job derivation (JobSeed).
	BaseSeed uint64
	// Pool bounds the number of concurrently running jobs; 0 selects
	// runtime.NumCPU().
	Pool int
	// CheckpointDir, when set, gives every job a FileCkptStore in that
	// directory.
	CheckpointDir string
	// Results, when set, memoizes the sweep against a content-addressed
	// result store: every replica and aggregate node consults the store
	// before computing (a verified hit skips the work entirely) and
	// publishes its artifact after. Keys derive from the determinism
	// contract (see memo.go), so hits are bit-identical by construction.
	Results *store.Store
}

// Validate reports spec errors.
func (sp *Spec) Validate() error {
	if len(sp.Points) == 0 {
		return fmt.Errorf("run: spec has no points")
	}
	if sp.Replicas <= 0 {
		return fmt.Errorf("run: Replicas must be positive")
	}
	if sp.SampleSteps <= 0 {
		return fmt.Errorf("run: SampleSteps must be positive")
	}
	if sp.WarmSteps < 0 {
		return fmt.Errorf("run: WarmSteps must not be negative")
	}
	for _, q := range sp.Quantities {
		if !sample.KnownQuantity(q) {
			return fmt.Errorf("run: unknown quantity %q", q)
		}
	}
	seen := make(map[string]bool, len(sp.Points))
	for i, pt := range sp.Points {
		if pt.Name == "" {
			return fmt.Errorf("run: point %d has no name", i)
		}
		if seen[pt.Name] {
			return fmt.Errorf("run: duplicate point name %q", pt.Name)
		}
		seen[pt.Name] = true
	}
	return nil
}

// quantities resolves the spec's quantity list (default: density).
func (sp *Spec) quantities() []string {
	if len(sp.Quantities) == 0 {
		return []string{sample.QDensity}
	}
	return sp.Quantities
}

// JobName is the canonical ID of one replica job in the core and in
// every event, so distributed runs and local runs report identical job
// tables.
func JobName(point string, replica int) string {
	return fmt.Sprintf("%s/r%03d", point, replica)
}

// AggregateName is the canonical ID of a point's fan-in in events.
func AggregateName(point string) string { return point + "/aggregate" }

// JobSeed derives the simulation seed of (point, replica) from the
// spec's base seed; see rng.JobSeed for the non-collision argument. The
// job index packs the point into the high word so sweeps of any
// practical width cannot overlap.
func JobSeed(base uint64, point, replica int) uint64 {
	return rng.JobSeed(base, uint64(point)<<32|uint64(uint32(replica)))
}

// AggregatePoint fans in one point's replica results — results must be
// indexed by replica and fully populated — with the identical
// index-order Welford merge the in-process fan-in runs, so a
// distributed sweep's aggregates are bit-identical to the local run's.
func (sp *Spec) AggregatePoint(point int, results []*ReplicaResult) *Aggregate {
	return aggregate(sp.Points[point].Name, sp.quantities(), results)
}

// Result is a completed sweep: one aggregate per point, in point order.
type Result struct {
	Name       string       `json:"name"`
	Aggregates []*Aggregate `json:"aggregates"`
}

// EventType tags a sweep event.
type EventType string

// Sweep event types.
const (
	EventJobStarted    EventType = "job-started"
	EventJobProgress   EventType = "job-progress"
	EventJobDone       EventType = "job-done"
	EventJobFailed     EventType = "job-failed"
	EventJobSkipped    EventType = "job-skipped"
	EventAggregateDone EventType = "aggregate-done"
	// EventJobLost reports a lease taken back (expired, or an error with
	// attempts left); the job will be redispatched.
	EventJobLost EventType = "job-lost"
	// EventJobReleased reports a lease handed back gracefully; no
	// attempt is consumed.
	EventJobReleased EventType = "job-released"
)

// Event is one observation of sweep progress. Events are delivered
// serially (never concurrently) but their order across jobs follows
// scheduling, not replica index.
type Event struct {
	Type     EventType `json:"type"`
	Job      string    `json:"job"`
	Scenario string    `json:"scenario,omitempty"`
	Replica  int       `json:"replica,omitempty"`
	// StepsDone/StepsTotal carry job progress (warm + sampling combined).
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	Err        string `json:"err,omitempty"`
}

// JobFunc executes one replica job. ck, when non-nil, is where the job
// persists and resumes its state; progress observes (stepsDone,
// stepsTotal). A job that sees ctx cancelled returns ctx.Err().
type JobFunc func(ctx context.Context, j Job, ck CkptStore, progress func(done, total int)) (*ReplicaResult, error)

// Run executes the spec in process, running every job through job, and
// returns the per-point aggregates. onEvent, when non-nil, observes
// progress; calls are serialized and all of them happen before Run
// returns.
//
// Run is the degenerate case of the job core: it registers the sweep
// with a private core and starts Pool goroutines that each take jobs
// until none are pending. Leases never expire, because an in-process
// job is only lost with the process, and each job gets one attempt,
// because a local error is deterministic. A failed job cancels the jobs
// still running, and Run returns an error wrapping the job's; a
// cancelled ctx makes Run return an error wrapping ctx.Err().
func Run(ctx context.Context, sp Spec, job JobFunc, onEvent func(Event)) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	pool := sp.Pool
	if pool <= 0 {
		pool = runtime.NumCPU()
	}
	if sp.CheckpointDir != "" {
		if err := os.MkdirAll(sp.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	cfg := CoreConfig{Store: sp.Results}
	if onEvent != nil {
		cfg.OnEvent = func(_ string, e Event) { onEvent(e) }
	}
	core := NewCore(cfg)
	aggs := make([]*Aggregate, len(sp.Points))
	ended := false
	var failure error
	core.Add(Sweep{
		Jobs:  sp.Jobs(),
		Pool:  pool,
		FanIn: func(pt int, outs []*ReplicaResult) { aggs[pt] = sp.fanIn(pt, outs) },
		OnDone: func(_ [][]*ReplicaResult, err error) {
			ended, failure = true, err
			cancel()
		},
	})

	var wg sync.WaitGroup
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jobCtx.Err() == nil {
				l := core.Poll("")
				if l == nil {
					return
				}
				sp.runLeased(jobCtx, core, l, job)
			}
		}()
	}
	wg.Wait()
	switch {
	case failure != nil:
		return nil, fmt.Errorf("run: %w", failure)
	case !ended:
		return nil, fmt.Errorf("run: %w", ctx.Err())
	}
	return &Result{Name: sp.Name, Aggregates: aggs}, nil
}

// runLeased executes one leased job in process and reports its progress
// and outcome to the core. Stale-lease answers need no handling: a
// lease is only revoked once the sweep has failed.
func (sp *Spec) runLeased(ctx context.Context, core *Core, l *Lease, job JobFunc) {
	j := l.Job
	var ck CkptStore
	if sp.CheckpointDir != "" {
		ck = FileCkptStore{Path: jobCkptPath(sp.CheckpointDir, j.Point, j.Replica)}
	}
	progress := func(done, _ int) { core.Heartbeat(l.Sweep, j.ID, l.LeaseID, done) }
	res, err := job(ctx, j, ck, progress)
	if err != nil {
		core.Fail(l.Sweep, j.ID, l.LeaseID, err)
		return
	}
	core.Complete(l.Sweep, j.ID, l.LeaseID, res)
}

// fanIn produces a point's aggregate: served from the store when it
// holds one, else merged in replica-index order and published.
func (sp *Spec) fanIn(pt int, outs []*ReplicaResult) *Aggregate {
	name, qs := sp.Points[pt].Name, sp.quantities()
	if sp.Results != nil {
		if agg, ok := memoAggregate(sp.Results, sp.AggregateKey(pt), name, qs); ok {
			return agg
		}
	}
	agg := aggregate(name, qs, outs)
	if sp.Results != nil {
		publishAggregate(sp.Results, sp.AggregateKey(pt), agg, qs)
	}
	return agg
}
