// Package run is the run-orchestration layer over the reference
// backends. An ensemble or parameter sweep is a two-level job graph:
// replica simulations fan out, and each point's aggregation fans in.
// The package holds the one executor for it, the job core (core.go): a
// lease state machine that registers sweeps, memoizes them against the
// result store, dispatches jobs in (point, replica) order under a pool
// bound, fences stale leases, retries or fails jobs, and fans each
// point in once its replicas are done. Run drives the core in process
// with a pool of goroutines; the distributed coordinator
// (internal/coord) puts the same core behind its HTTP protocol.
//
// This is the outer level of parallelism the paper's single
// hand-launched runs lack: DSMC answers are statistical, so the
// production question is "run N replicas per sweep point, aggregate into
// mean/variance/CI, and serve the result", and whole-simulation jobs
// scale on multi-core hosts even where the inner worker sharding is
// bandwidth-bound.
//
// Determinism: every job derives its seed from the spec's base seed
// (rng.JobSeed — collision-free by construction), jobs never share
// mutable state, and a point's fan-in merges replica results strictly in
// index order, so a sweep's aggregates are bit-identical for any pool
// size and any completion order. With a checkpoint directory set, jobs
// persist engine + domain + accumulator state every few steps
// (internal/ckpt) and resume exactly: a killed and restarted sweep
// produces the same bits as an uninterrupted one.
package run

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"

	"dsmc/internal/sample"
	"dsmc/internal/store"
)

// Spec describes an ensemble or sweep: one or more scenarios, each run
// Replicas times. The zero value is not runnable; Validate reports why.
type Spec struct {
	// Name labels the sweep in events and results.
	Name string
	// Scenarios are the sweep points (one scenario = a plain ensemble).
	Scenarios []Scenario
	// Quantities are the sampled quantity slugs (sample.Q*) each replica
	// derives from its one-pass moment accumulation and each aggregate
	// carries per-cell statistics for; empty defaults to density alone.
	Quantities []string
	// Replicas is the number of independent replicas per scenario.
	Replicas int
	// WarmSteps runs before sampling starts; SampleSteps are accumulated.
	WarmSteps, SampleSteps int
	// BaseSeed seeds the per-job derivation (rng.JobSeed).
	BaseSeed uint64
	// Pool bounds the number of concurrently running simulations;
	// 0 selects runtime.NumCPU(). Each simulation runs with its own
	// configured Workers (default 1 when orchestrating, so the outer and
	// inner parallelism multiply rather than oversubscribe).
	Pool int
	// CheckpointDir, when set, makes jobs resumable: each persists its
	// state there every CheckpointEvery steps.
	CheckpointDir string
	// CheckpointEvery is the step interval between job checkpoints
	// (default 50 when a directory is set).
	CheckpointEvery int
	// Results, when set, memoizes the sweep against a content-addressed
	// result store: every replica and aggregate node consults the store
	// before computing (a verified hit skips the work entirely) and
	// publishes its artifact after. Keys derive from the determinism
	// contract (see memo.go), so hits are bit-identical by construction.
	Results *store.Store
}

// Validate reports spec errors.
func (sp *Spec) Validate() error {
	if len(sp.Scenarios) == 0 {
		return fmt.Errorf("run: spec has no scenarios")
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
	seen := make(map[string]bool, len(sp.Scenarios))
	for i, sc := range sp.Scenarios {
		if sc.Name == "" {
			return fmt.Errorf("run: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("run: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if err := sc.validate(); err != nil {
			return fmt.Errorf("run: scenario %q: %w", sc.Name, err)
		}
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
func JobName(scenario string, replica int) string {
	return fmt.Sprintf("%s/r%03d", scenario, replica)
}

// AggregateName is the canonical ID of a scenario's fan-in in events.
func AggregateName(scenario string) string { return scenario + "/aggregate" }

// JobIO carries the side channels of a single-job execution: the
// checkpoint store (nil disables checkpointing), the step interval
// between checkpoints, the progress observer, and the per-step trace
// observer (the flight-recorder feed; called on the stepping
// goroutine after every step with that step's per-phase wall times in
// nanoseconds and the particle count).
type JobIO struct {
	Ckpt      CkptStore
	Every     int
	Progress  func(done, total int)
	StepTrace func(step int, phaseNs [4]int64, particles int)
	// Results, when set, memoizes the job: a verified store hit returns
	// the finished output without stepping, a miss computes and
	// publishes it.
	Results *store.Store
}

// RunJob executes exactly one replica job of a validated spec — the
// distributed-execution entry. A coordinator enumerates the (scenario,
// replica) pairs; pull-workers call RunJob with a checkpoint store that
// uploads to the coordinator. The seed derivation, stepping loop and
// checkpoint codec are the very functions the in-process Run path uses,
// so a job executed remotely — or re-executed elsewhere after a worker
// loss, resuming from the last uploaded checkpoint — contributes bits
// identical to the never-failed local run.
func RunJob(ctx context.Context, sp Spec, scenarioIdx, replica int, io JobIO) (*ReplicaResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if scenarioIdx < 0 || scenarioIdx >= len(sp.Scenarios) {
		return nil, fmt.Errorf("run: scenario index %d out of range (%d scenarios)", scenarioIdx, len(sp.Scenarios))
	}
	if replica < 0 || replica >= sp.Replicas {
		return nil, fmt.Errorf("run: replica %d out of range (%d replicas)", replica, sp.Replicas)
	}
	ck := jobCkpt{store: io.Ckpt, every: io.Every}
	if io.Results != nil {
		if res, ok := memoReplica(io.Results, sp.OutputKey(scenarioIdx, replica).ID()); ok {
			if io.Progress != nil {
				total := sp.WarmSteps + sp.SampleSteps
				io.Progress(total, total)
			}
			return res, nil
		}
	}
	seed := jobSeed(sp.BaseSeed, scenarioIdx, replica)
	res, err := runReplica(ctx, sp.Scenarios[scenarioIdx], sp.quantities(), seed, sp.WarmSteps, sp.SampleSteps, ck, io.Progress, io.StepTrace)
	if err != nil {
		return nil, err
	}
	if io.Results != nil {
		publishReplica(io.Results, sp.OutputKey(scenarioIdx, replica).ID(), res)
	}
	return res, nil
}

// AggregateScenario fans in one scenario's replica results — results
// must be indexed by replica and fully populated — with the identical
// index-order Welford merge the in-process fan-in runs, so a
// distributed sweep's aggregates are bit-identical to the local run's.
func (sp *Spec) AggregateScenario(scenarioIdx int, results []*ReplicaResult) *Aggregate {
	return aggregate(sp.Scenarios[scenarioIdx].Name, sp.quantities(), results)
}

// Result is a completed sweep: one aggregate per scenario, in scenario
// order.
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

// Run executes the spec in process and returns the per-scenario
// aggregates. onEvent, when non-nil, observes progress; calls are
// serialized and all of them happen before Run returns.
//
// Run is the degenerate case of the job core: it registers the sweep
// with a private core and starts Pool goroutines that each take jobs
// until none are pending. Leases never expire, because an in-process
// job is only lost with the process, and each job gets one attempt,
// because a local error is deterministic. A failed job cancels the jobs
// still running; cancellation checkpoints every in-flight job and
// returns an error wrapping ctx.Err().
func Run(ctx context.Context, sp Spec, onEvent func(Event)) (*Result, error) {
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
	aggs := make([]*Aggregate, len(sp.Scenarios))
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
				sp.runLeased(jobCtx, core, l)
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
func (sp *Spec) runLeased(ctx context.Context, core *Core, l *Lease) {
	j := l.Job
	var ck jobCkpt
	if sp.CheckpointDir != "" {
		ck = jobCkpt{store: FileCkptStore{Path: jobCkptPath(sp.CheckpointDir, j.Point, j.Replica)}, every: sp.CheckpointEvery}
	}
	progress := func(done, _ int) { core.Heartbeat(l.Sweep, j.ID, l.LeaseID, done) }
	res, err := runReplica(ctx, sp.Scenarios[j.Point], sp.quantities(), jobSeed(sp.BaseSeed, j.Point, j.Replica),
		sp.WarmSteps, sp.SampleSteps, ck, progress, nil)
	if err != nil {
		core.Fail(l.Sweep, j.ID, l.LeaseID, err)
		return
	}
	core.Complete(l.Sweep, j.ID, l.LeaseID, res)
}

// fanIn produces a point's aggregate: served from the store when it
// holds one, else merged in replica-index order and published.
func (sp *Spec) fanIn(pt int, outs []*ReplicaResult) *Aggregate {
	name, qs := sp.Scenarios[pt].Name, sp.quantities()
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
