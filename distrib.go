package dsmc

import (
	"context"
	"fmt"

	"dsmc/internal/run"
	"dsmc/internal/store"
)

// This file is the distributed-execution surface of a sweep: a sweep's
// job list, single-job execution, and result assembly as three separate
// entry points. A coordinator process enumerates the jobs with
// SweepJobs, hands them to pull-workers that execute them with
// RunSweepJob (uploading checkpoints through the JobCheckpoint they are
// given), and assembles the uploaded outputs with AssembleSweepResult.
//
// The three functions deliberately share every line of lowering,
// seeding, stepping and aggregation code with the in-process RunSweep,
// so a sweep computed by any number of workers — including workers that
// crashed and were re-dispatched, resuming from their last uploaded
// checkpoint — produces a result bit-identical to RunSweep's.

// SweepJob identifies one replica job of a sweep: the point (scenario)
// index, the replica index, and the canonical job ID that RunSweep's
// event stream uses for the same job.
type SweepJob struct {
	ID         string `json:"id"`
	Point      int    `json:"point"`
	Replica    int    `json:"replica"`
	StepsTotal int    `json:"steps_total"`
	// StoreKey is the job's content-addressed result-store key ID — a
	// pure function of the spec's determinism contract (spec
	// fingerprint, master seed, point, replica), so every process that
	// holds the spec derives the same key. A coordinator with a store
	// uses it to satisfy jobs from finished artifacts instead of
	// dispatching them.
	StoreKey string `json:"store_key,omitempty"`
	// Scenario is the name of the job's point.
	Scenario string `json:"scenario"`
}

// SweepJobs enumerates the replica jobs of a validated spec in
// deterministic (point, replica) order. The list is a pure function of
// the spec, so every process that holds the spec agrees on the job set.
func SweepJobs(spec SweepSpec) ([]SweepJob, error) {
	sp, _, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	rj := sp.Jobs()
	jobs := make([]SweepJob, len(rj))
	for i, j := range rj {
		jobs[i] = SweepJob(j)
	}
	return jobs, nil
}

// AggregateJobID is the canonical ID of a point's fan-in in status
// tables and event streams (it is not a dispatchable job: aggregation
// runs wherever the outputs are assembled).
func AggregateJobID(pointName string) string { return run.AggregateName(pointName) }

// ReplicaOutput is one finished replica job's contribution to the
// aggregation: the requested time-averaged quantity fields keyed by
// quantity slug, the fitted shock angle (NaN for scenarios without a
// wedge), and the integer diagnostics. Transport note: ShockAngleDeg
// may be NaN, which encoding/json rejects — ship outputs with a
// bit-exact binary codec (internal/coord does), not with json.Marshal.
type ReplicaOutput struct {
	Fields        map[string][]float64
	ShockAngleDeg float64
	Collisions    int64
	NFlow         int
}

// JobCheckpoint is where a running sweep job persists its state: Load
// returns the last saved checkpoint (nil when none), Save durably
// replaces it, Discard removes a checkpoint found corrupt or stale.
// The distributed worker backs this with coordinator uploads; RunSweep's
// local jobs back it with an atomically written file.
type JobCheckpoint interface {
	Load() ([]byte, error)
	Save(data []byte) error
	Discard() error
}

// StepTrace is one completed engine step's flight-recorder record:
// the step index, that step's wall time per pipeline phase in
// nanoseconds (indexed like StepPhases), and the flow's particle
// count. The timings come from the engine's existing phase-time
// chokepoint — observing them adds no clock reads and cannot perturb
// results.
type StepTrace struct {
	Step      int      `json:"step"`
	PhaseNs   [4]int64 `json:"phase_ns"`
	Particles int      `json:"particles"`
}

// StepPhases names the four pipeline phases, indexing StepTrace.PhaseNs.
var StepPhases = [4]string{"move+boundary", "sort", "select", "collide"}

// SweepJobIO carries the side channels of a single-job execution.
type SweepJobIO struct {
	// Checkpoint, when non-nil, makes the job resumable: state is saved
	// every CheckpointEvery steps (default: the spec's CheckpointEvery,
	// then 50) and on context cancellation, and a re-run resumes from the
	// last save bit-identically. The spec's CheckpointDir is ignored
	// here — the caller owns placement.
	Checkpoint      JobCheckpoint
	CheckpointEvery int
	// Progress observes (stepsDone, stepsTotal) at start, after every
	// checkpoint interval, and at completion.
	Progress func(done, total int)
	// OnStepTrace, when non-nil, observes every completed step's phase
	// timings — the flight-recorder feed. Called on the stepping
	// goroutine; implementations must be fast and must not block.
	OnStepTrace func(StepTrace)
}

// RunSweepJob executes exactly one replica job of a sweep — the unit a
// distributed worker pulls. The job's seed derivation, stepping loop and
// checkpoint codec are the same code RunSweep runs in-process, so the
// returned output is bit-identical to the contribution the same
// (point, replica) makes inside RunSweep, wherever and however often the
// job is attempted.
func RunSweepJob(ctx context.Context, spec SweepSpec, point, replica int, io SweepJobIO) (*ReplicaOutput, error) {
	sp, _, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	every := io.CheckpointEvery
	if every <= 0 {
		every = spec.CheckpointEvery
	}
	jio := run.JobIO{Ckpt: io.Checkpoint, Every: every, Progress: io.Progress}
	if spec.ResultStoreDir != "" {
		st, err := store.Open(spec.ResultStoreDir)
		if err != nil {
			return nil, fmt.Errorf("dsmc: opening result store: %w", err)
		}
		jio.Results = st
	}
	if trace := io.OnStepTrace; trace != nil {
		jio.StepTrace = func(step int, phaseNs [4]int64, particles int) {
			trace(StepTrace{Step: step, PhaseNs: phaseNs, Particles: particles})
		}
	}
	res, err := run.RunJob(ctx, sp, point, replica, jio)
	if err != nil {
		return nil, err
	}
	return (*ReplicaOutput)(res), nil
}

// AssembleSweepResult fans a sweep's collected job outputs into the
// public result: outputs[point][replica] must be fully populated in
// (point, replica) order — SweepJobs order. The aggregation is the
// identical index-order Welford merge RunSweep's point fan-in runs, so
// the assembled result is bit-identical to the in-process run's
// regardless of which workers computed which jobs in which order.
func AssembleSweepResult(spec SweepSpec, outputs [][]*ReplicaOutput) (*SweepResult, error) {
	sp, plans, err := lowerSpec(spec)
	if err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if len(outputs) != len(sp.Scenarios) {
		return nil, fmt.Errorf("dsmc: %d output groups for %d points", len(outputs), len(sp.Scenarios))
	}
	aggs := make([]*run.Aggregate, len(sp.Scenarios))
	for si := range sp.Scenarios {
		if len(outputs[si]) != sp.Replicas {
			return nil, fmt.Errorf("dsmc: point %d has %d outputs for %d replicas", si, len(outputs[si]), sp.Replicas)
		}
		rs := make([]*run.ReplicaResult, sp.Replicas)
		for r, o := range outputs[si] {
			if o == nil {
				return nil, fmt.Errorf("dsmc: point %d replica %d output missing", si, r)
			}
			rs[r] = (*run.ReplicaResult)(o)
		}
		aggs[si] = sp.AggregateScenario(si, rs)
	}
	return assembleResult(spec.Name, plans, aggs), nil
}
