package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// Config parameterizes a Coordinator. The zero value works for tests:
// in-memory checkpoints, 15s leases, 3 dispatch attempts per job.
type Config struct {
	// DataDir, when set, persists uploaded checkpoints to
	// <DataDir>/<sweep>/ckpt/job-sNNN-rNNN.ckpt — the file name an
	// in-process RunSweep gives them in its checkpoint directory — so a
	// coordinator restarted over an old data directory resumes from them.
	// When empty, checkpoints are held in memory.
	DataDir string
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the job is taken away and redispatched (default 15s).
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatches per job; when a job's lease expires
	// or a worker reports an error and the budget is spent, the job fails
	// permanently and its sweep fails with it (default 3).
	MaxAttempts int
	// Store, when non-nil, memoizes jobs against the content-addressed
	// result store: a sweep's jobs are satisfied from finished artifacts
	// at registration (never dispatched), every accepted completion is
	// published under the job's store key, and a publish immediately
	// completes matching pending jobs of every other registered sweep.
	// Reads are checksum-verified by the store; publishes of conflicting
	// bytes under a live key are refused and counted, never silently
	// accepted.
	Store *store.Store
	// OnEvent, when non-nil, observes sweep progress with the same event
	// vocabulary as dsmc.RunSweep, plus "job-lost" (lease expired or
	// worker-reported error with budget remaining; the job will be
	// redispatched), "job-released" (worker handed the job back
	// gracefully, e.g. during shutdown; no attempt consumed) and "trace"
	// (a running job's flight-recorder batch). Calls are serialized.
	OnEvent func(sweepID string, e dsmc.SweepEvent)
	// now is the test clock hook.
	now func() time.Time
}

// Coordinator hands the jobs of one or more sweeps to pull-based
// workers under leases. The job state machine is the shared core
// (run.Core) that in-process sweeps run on too; the Coordinator adds
// each sweep's wire spec, the fleet table, the dsmc_coord_* telemetry
// and the conversion to and from the public dsmc types.
type Coordinator struct {
	cfg  Config
	core *run.Core

	evMu sync.Mutex // serializes OnEvent across core transitions and trace fan-out

	mu      sync.Mutex
	specs   map[string]json.RawMessage // wire spec per sweep
	workers map[string]*workerState
}

type workerState struct {
	id       string
	lastSeen time.Time
	// metrics is the worker's last heartbeat-piggybacked instrument
	// snapshot, re-emitted by WriteMetrics under dsmc_fleet_*.
	metrics []obs.Sample
}

// New builds a Coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:     cfg,
		specs:   make(map[string]json.RawMessage),
		workers: make(map[string]*workerState),
	}
	c.core = run.NewCore(run.CoreConfig{
		LeaseTTL:    cfg.LeaseTTL,
		MaxAttempts: cfg.MaxAttempts,
		Store:       cfg.Store,
		OnEvent:     c.observe,
		OnExpire:    mLeaseExpiries.Inc,
		OnComplete: func(held time.Duration) {
			mCompletions.Inc()
			mJobSeconds.Observe(held.Seconds())
		},
		Now: cfg.now,
	})
	return c
}

// AddSweep registers a sweep for dispatch. onDone, when non-nil, is
// called exactly once from a fresh goroutine when the sweep finishes:
// with the assembled result on success, or with the first error once
// the failure has propagated through the sweep.
func (c *Coordinator) AddSweep(id string, spec dsmc.SweepSpec, onDone func(*dsmc.SweepResult, error)) error {
	jobs, err := dsmc.SweepJobs(spec)
	if err != nil {
		return err
	}
	// The dispatched spec must not leak coordinator-local paths: a worker
	// handed ResultStoreDir would open (or create) that directory on its
	// own filesystem. Memoization is coordinator-side; workers just run.
	wire := spec
	wire.ResultStoreDir = ""
	raw, err := json.Marshal(wire)
	if err != nil {
		return err
	}
	c.mu.Lock()
	_, dup := c.specs[id]
	if !dup {
		c.specs[id] = raw
	}
	c.mu.Unlock()
	if dup {
		return fmt.Errorf("coord: sweep %q already registered", id)
	}

	sw := run.Sweep{ID: id, Pool: spec.Pool, Jobs: make([]run.Job, len(jobs))}
	for i, j := range jobs {
		sw.Jobs[i] = run.Job(j)
	}
	if c.cfg.DataDir != "" {
		sw.CkptDir = filepath.Join(c.cfg.DataDir, id, "ckpt")
	}
	if onDone != nil {
		sw.OnDone = func(outs [][]*run.ReplicaResult, err error) {
			go func() {
				if err != nil {
					onDone(nil, fmt.Errorf("coord: sweep %s failed: %w", id, err))
					return
				}
				pub := make([][]*dsmc.ReplicaOutput, len(outs))
				for pt, row := range outs {
					pub[pt] = make([]*dsmc.ReplicaOutput, len(row))
					for r, o := range row {
						pub[pt][r] = (*dsmc.ReplicaOutput)(o)
					}
				}
				onDone(dsmc.AssembleSweepResult(spec, pub))
			}()
		}
	}
	c.core.Add(sw)
	return nil
}

// Poll hands the worker the next dispatchable job, or nil when no work
// is available. Jobs dispatch in sweep-arrival then (point, replica)
// order; a sweep with Pool > 0 holds at most Pool in-flight leases.
func (c *Coordinator) Poll(workerID string) (*Lease, error) {
	c.touchWorker(workerID, nil)
	l := c.core.Poll(workerID)
	if l == nil {
		return nil, nil
	}
	mLeaseGrants.Inc()
	c.mu.Lock()
	raw := c.specs[l.Sweep]
	c.mu.Unlock()
	return &Lease{
		Sweep:         l.Sweep,
		Job:           l.Job.ID,
		Point:         l.Job.Point,
		Replica:       l.Job.Replica,
		StepsTotal:    l.Job.StepsTotal,
		LeaseID:       l.LeaseID,
		TTLMillis:     c.cfg.LeaseTTL.Milliseconds(),
		HasCheckpoint: l.HasCheckpoint,
		Spec:          raw,
	}, nil
}

// HandleHeartbeat renews the lease and records progress, or tells a
// stale worker to abandon the job.
func (c *Coordinator) HandleHeartbeat(hb Heartbeat) (string, error) {
	mHeartbeats.Inc()
	c.touchWorker(hb.Worker, hb.Metrics)
	j, err := c.core.Heartbeat(hb.Sweep, hb.Job, hb.Lease, hb.StepsDone)
	if err != nil {
		mStaleRejects.Inc()
		return HBAbandon, nil // sweep unknown or lease gone: stop working
	}
	// A trace batch from the live lease holder fans out as a "trace"
	// event — the flight-recorder feed. Batches from stale leases never
	// reach here, so a redispatched job's recorder shows one worker's
	// timeline at a time.
	if len(hb.Trace) > 0 {
		c.emit(hb.Sweep, dsmc.SweepEvent{
			Type: "trace", Job: j.ID, Scenario: j.Scenario, Replica: j.Replica, Trace: hb.Trace,
		})
	}
	return HBOK, nil
}

// SaveCheckpoint stores a job's checkpoint upload and renews the lease.
// Saves are idempotent (last write wins); a stale lease gets
// ErrStaleLease and must abandon the job.
func (c *Coordinator) SaveCheckpoint(sweep, jobID, lease string, data []byte) error {
	return fence(c.core.SaveCheckpoint(sweep, jobID, lease, data))
}

// LoadCheckpoint returns the job's last uploaded checkpoint (nil when
// none) to the current lease holder.
func (c *Coordinator) LoadCheckpoint(sweep, jobID, lease string) ([]byte, error) {
	data, err := c.core.LoadCheckpoint(sweep, jobID, lease)
	return data, fence(err)
}

// Complete records a job's output. Idempotent: a redelivered Complete
// under the winning lease is acked; any other lease gets ErrStaleLease.
func (c *Coordinator) Complete(sweep, jobID, lease string, out *dsmc.ReplicaOutput) error {
	return fence(c.core.Complete(sweep, jobID, lease, (*run.ReplicaResult)(out)))
}

// Release hands a job back gracefully (worker shutdown): the job returns
// to the queue without consuming a dispatch attempt, and the next worker
// resumes from the last uploaded checkpoint.
func (c *Coordinator) Release(sweep, jobID, lease string, stepsDone int) error {
	return fence(c.core.Release(sweep, jobID, lease, stepsDone))
}

// Fail records a worker-reported job error. With budget remaining the
// job is requeued; otherwise it fails permanently and so does its sweep.
func (c *Coordinator) Fail(sweep, jobID, lease, msg string) error {
	return fence(c.core.Fail(sweep, jobID, lease, errors.New(msg)))
}

// Workers reports the fleet as seen by the coordinator, sorted by ID.
// A worker silent for three lease TTLs is reported lost.
func (c *Coordinator) Workers() []WorkerStatus {
	held := c.core.Holdings()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		h := held[w.id]
		ws := WorkerStatus{
			ID:             w.id,
			State:          "idle",
			Sweep:          h.Sweep,
			Job:            h.Job,
			StepsDone:      h.StepsDone,
			StepsTotal:     h.StepsTotal,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		}
		if h.Job != "" {
			ws.State = "running"
		}
		if now.Sub(w.lastSeen) > 3*c.cfg.LeaseTTL {
			ws.State = "lost"
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// observe counts the core's transitions and forwards them as public
// sweep events.
func (c *Coordinator) observe(sweep string, e run.Event) {
	switch e.Type {
	case run.EventJobLost:
		mRetries.Inc()
	case run.EventJobFailed:
		mJobFailures.Inc()
	case run.EventJobReleased:
		mReleases.Inc()
	}
	c.emit(sweep, dsmc.SweepEvent{
		Type: string(e.Type), Job: e.Job, Scenario: e.Scenario, Replica: e.Replica,
		StepsDone: e.StepsDone, StepsTotal: e.StepsTotal, Err: e.Err,
	})
}

func (c *Coordinator) emit(sweep string, e dsmc.SweepEvent) {
	if c.cfg.OnEvent == nil {
		return
	}
	c.evMu.Lock()
	defer c.evMu.Unlock()
	c.cfg.OnEvent(sweep, e)
}

// touchWorker records a worker's contact and, when it sent one, its
// instrument snapshot.
func (c *Coordinator) touchWorker(id string, metrics []obs.Sample) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.lastSeen = c.cfg.now()
	if len(metrics) > 0 {
		w.metrics = metrics
	}
}

// fence counts a stale-lease rejection on its way back to the caller.
func fence(err error) error {
	if errors.Is(err, ErrStaleLease) {
		mStaleRejects.Inc()
	}
	return err
}
