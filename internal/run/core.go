package run

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"dsmc/internal/store"
)

// Sentinel errors of the core's lease API.
var (
	// ErrStaleLease rejects a call under a lease that is no longer the
	// job's current lease: expired, released, superseded by a
	// redispatch, or on a sweep that already failed. Repeating the call
	// changes nothing; the holder's answer is to abandon the job.
	ErrStaleLease = errors.New("run: stale lease")
	// ErrUnknown rejects references to sweeps or jobs the core does not
	// track.
	ErrUnknown = errors.New("run: unknown sweep or job")
)

// Job is one replica job of a sweep: its canonical ID (JobName), its
// (point, replica) coordinates, its step budget, its result-store key
// ID ("" leaves it unmemoized) and its point's name.
type Job struct {
	ID         string
	Point      int
	Replica    int
	StepsTotal int
	StoreKey   string
	Scenario   string
}

// Jobs enumerates the spec's replica jobs in (point, replica) order —
// the order the core dispatches them in.
func (sp *Spec) Jobs() []Job {
	total := sp.WarmSteps + sp.SampleSteps
	jobs := make([]Job, 0, len(sp.Scenarios)*sp.Replicas)
	for si, sc := range sp.Scenarios {
		for r := 0; r < sp.Replicas; r++ {
			jobs = append(jobs, Job{ID: JobName(sc.Name, r), Point: si, Replica: r,
				StepsTotal: total, StoreKey: sp.OutputKey(si, r).ID(), Scenario: sc.Name})
		}
	}
	return jobs
}

// CoreConfig parameterizes a Core. The zero value suits in-process
// execution: leases never expire and every job gets one attempt.
type CoreConfig struct {
	// LeaseTTL is how long a lease survives without a heartbeat before
	// the job is taken back; zero means leases never expire.
	LeaseTTL time.Duration
	// MaxAttempts bounds dispatches per job (default 1). A job whose
	// budget is spent fails permanently, and so does its sweep.
	MaxAttempts int
	// Store, when set, memoizes jobs: a registered sweep's jobs are
	// satisfied from finished artifacts before anything dispatches,
	// every accepted completion is published under the job's key, and a
	// publish completes matching pending jobs of every other sweep.
	Store *store.Store
	// OnEvent observes every transition. Calls are serialized under the
	// core's lock and must not call back into the core.
	OnEvent func(sweep string, e Event)
	// OnExpire and OnComplete observe what the event stream does not
	// tell apart: a lease lapsing, and a dispatched job's accepted
	// completion with its dispatch-to-complete time.
	OnExpire   func()
	OnComplete func(held time.Duration)
	// Now is the clock (default time.Now).
	Now func() time.Time
}

// Sweep is one sweep as registered with the core.
type Sweep struct {
	ID string
	// Jobs lists every replica of every point in (point, replica) order.
	Jobs []Job
	// Pool bounds the sweep's in-flight leases; 0 is unbounded.
	Pool int
	// CkptDir holds checkpoints saved through the core, one
	// job-sNNN-rNNN.ckpt file per job; empty keeps them in memory.
	CkptDir string
	// FanIn, when set, merges a point's outputs (indexed by replica)
	// once they are all done, before the point's aggregate-done event.
	FanIn func(point int, outs []*ReplicaResult)
	// OnDone is called once when the sweep ends: with every output,
	// indexed [point][replica], or with the first error once the failure
	// has propagated. It runs under the core's lock and must not call
	// back into the core.
	OnDone func(outs [][]*ReplicaResult, err error)
}

// Lease is a dispatched job and the lease ID every later call about it
// must present.
type Lease struct {
	Sweep         string
	Job           Job
	LeaseID       string
	HasCheckpoint bool
}

// Holding is one live lease as a fleet table shows it.
type Holding struct {
	Sweep, Job            string
	StepsDone, StepsTotal int
}

// Core owns the job state of one or more sweeps. Every transition
// happens under one mutex, and lease expiry is evaluated at the top of
// every call, so no background goroutine is needed and tests can drive
// the clock.
type Core struct {
	cfg CoreConfig

	mu       sync.Mutex
	order    []string // sweep IDs in arrival order (dispatch priority)
	sweeps   map[string]*coreSweep
	leaseSeq uint64
}

type jobPhase int

const (
	jobPending jobPhase = iota
	jobLeased
	jobDone
	jobFailed
	// jobSkipped marks jobs that never finished because another job of
	// their sweep failed first.
	jobSkipped
)

type coreJob struct {
	Job
	phase    jobPhase
	attempts int // dispatches consumed against MaxAttempts

	// lease is the current lease while leased; after done it keeps the
	// winning lease so a redelivered Complete from the winner is acked
	// while any other lease is rejected.
	lease        string
	worker       string
	dispatchedAt time.Time
	expires      time.Time
	stepsDone    int
	heartbeats   int // heartbeats seen under the current lease

	output *ReplicaResult
	ckpt   []byte // the checkpoint when the sweep has no CkptDir
}

type coreSweep struct {
	Sweep
	jobs    []*coreJob
	byID    map[string]*coreJob
	points  [][]*coreJob // jobs grouped by point, indexed by replica
	aggDone []bool       // per point: fanned in or skipped
	err     error        // first permanent failure
	ended   bool
}

// NewCore builds a Core.
func NewCore(cfg CoreConfig) *Core {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Core{cfg: cfg, sweeps: make(map[string]*coreSweep)}
}

// Add registers a sweep for dispatch; its ID must be new to the core.
// With a store, every job the store already holds completes here,
// before anything dispatches.
func (c *Core) Add(sw Sweep) {
	st := &coreSweep{Sweep: sw, byID: make(map[string]*coreJob, len(sw.Jobs))}
	for _, j := range sw.Jobs {
		cj := &coreJob{Job: j}
		st.jobs = append(st.jobs, cj)
		st.byID[j.ID] = cj
		for len(st.points) <= j.Point {
			st.points = append(st.points, nil)
		}
		st.points[j.Point] = append(st.points[j.Point], cj)
	}
	st.aggDone = make([]bool, len(st.points))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweeps[sw.ID] = st
	c.order = append(c.order, sw.ID)
	c.memoLocked(st, "")
}

// Poll leases the next pending job to worker, or returns nil when none
// is available. Jobs dispatch in sweep-arrival then (point, replica)
// order; a sweep with Pool > 0 holds at most Pool leases at once.
func (c *Core) Poll(worker string) *Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	c.expireLocked(now)
	for _, id := range c.order {
		st := c.sweeps[id]
		if st.ended || (st.Pool > 0 && st.count(jobLeased) >= st.Pool) {
			continue
		}
		for _, j := range st.jobs {
			if j.phase != jobPending {
				continue
			}
			c.leaseSeq++
			j.phase = jobLeased
			j.attempts++
			j.lease = fmt.Sprintf("l%06d", c.leaseSeq)
			j.worker = worker
			j.dispatchedAt = now
			j.expires = now.Add(c.cfg.LeaseTTL)
			j.heartbeats = 0
			c.emitLocked(st, Event{Type: EventJobStarted, Job: j.ID})
			hasCkpt := len(j.ckpt) > 0
			if st.CkptDir != "" {
				_, err := os.Stat(st.ckptFile(j).Path)
				hasCkpt = err == nil
			}
			return &Lease{Sweep: id, Job: j.Job, LeaseID: j.lease, HasCheckpoint: hasCkpt}
		}
	}
	return nil
}

// Heartbeat renews a lease and records the job's progress, emitting a
// progress event when the step count changed and on a lease's first
// heartbeat. It returns the job so the caller can label its own events.
func (c *Core) Heartbeat(sweep, job, lease string, stepsDone int) (Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	st, j, err := c.liveLocked(now, sweep, job, lease)
	if err != nil {
		return Job{}, err
	}
	j.expires = now.Add(c.cfg.LeaseTTL)
	j.heartbeats++
	if stepsDone != j.stepsDone || j.heartbeats == 1 {
		j.stepsDone = stepsDone
		c.emitLocked(st, Event{Type: EventJobProgress, Job: j.ID, Scenario: j.Scenario,
			Replica: j.Replica, StepsDone: stepsDone, StepsTotal: j.StepsTotal})
	}
	return j.Job, nil
}

// SaveCheckpoint stores a job's checkpoint and renews its lease. Saves
// are idempotent: the last one wins.
func (c *Core) SaveCheckpoint(sweep, job, lease string, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	st, j, err := c.liveLocked(now, sweep, job, lease)
	if err != nil {
		return err
	}
	if st.CkptDir == "" {
		j.ckpt = append([]byte(nil), data...)
	} else {
		if err := os.MkdirAll(st.CkptDir, 0o755); err != nil {
			return err
		}
		if err := st.ckptFile(j).Save(data); err != nil {
			return err
		}
	}
	j.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// LoadCheckpoint returns the job's last saved checkpoint (nil when
// none) to the current lease holder.
func (c *Core) LoadCheckpoint(sweep, job, lease string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, j, err := c.liveLocked(c.cfg.Now(), sweep, job, lease)
	if err != nil {
		return nil, err
	}
	if st.CkptDir == "" {
		return append([]byte(nil), j.ckpt...), nil
	}
	return st.ckptFile(j).Load()
}

// Complete records a job's output. A redelivered Complete under the
// winning lease is acked; any other lease gets ErrStaleLease. With a
// store, the output is published under the job's key and completes the
// matching pending jobs of every other sweep.
func (c *Core) Complete(sweep, job, lease string, out *ReplicaResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	st, j, err := c.liveLocked(now, sweep, job, lease)
	if err != nil {
		if j != nil && j.phase == jobDone && j.lease == lease {
			return nil // duplicate delivery of the winning completion
		}
		return err
	}
	if c.cfg.OnComplete != nil {
		c.cfg.OnComplete(now.Sub(j.dispatchedAt))
	}
	c.completeLocked(st, j, out)
	// The publish sits behind the lease fence, so only the winning
	// completion of a redispatched job reaches the store; racing writers
	// of one key must produce identical bytes, which Put verifies.
	if c.cfg.Store != nil && j.StoreKey != "" {
		publishReplica(c.cfg.Store, j.StoreKey, out)
		for _, id := range c.order {
			if o := c.sweeps[id]; o != st && !o.ended {
				c.memoLocked(o, j.StoreKey)
			}
		}
	}
	return nil
}

// Release hands a job back without consuming a dispatch attempt (a
// worker shutting down); the next holder resumes from its checkpoint.
func (c *Core) Release(sweep, job, lease string, stepsDone int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, j, err := c.liveLocked(c.cfg.Now(), sweep, job, lease)
	if err != nil {
		return err
	}
	j.phase = jobPending
	j.attempts--
	j.lease, j.worker = "", ""
	j.stepsDone = stepsDone
	c.emitLocked(st, Event{Type: EventJobReleased, Job: j.ID, StepsDone: stepsDone, StepsTotal: j.StepsTotal})
	return nil
}

// Fail records a job error: the job is requeued while its budget lasts,
// otherwise it fails its sweep with an error that wraps jobErr.
func (c *Core) Fail(sweep, job, lease string, jobErr error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, j, err := c.liveLocked(c.cfg.Now(), sweep, job, lease)
	if err != nil {
		return err
	}
	c.retryOrFailLocked(st, j, jobErr)
	return nil
}

// Holdings reports every live lease by the worker holding it.
func (c *Core) Holdings() map[string]Holding {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	out := make(map[string]Holding)
	for _, id := range c.order {
		for _, j := range c.sweeps[id].jobs {
			if j.phase == jobLeased {
				out[j.worker] = Holding{Sweep: id, Job: j.ID, StepsDone: j.stepsDone, StepsTotal: j.StepsTotal}
			}
		}
	}
	return out
}

// Backlog counts the leased and the pending jobs of unfinished sweeps.
func (c *Core) Backlog() (leased, pending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		if st := c.sweeps[id]; !st.ended {
			leased += st.count(jobLeased)
			pending += st.count(jobPending)
		}
	}
	return leased, pending
}

// --- internals (all require c.mu) ---

// liveLocked expires lapsed leases and resolves the job a call names.
// It returns ErrStaleLease, with the sweep and job, unless lease is the
// job's current lease.
func (c *Core) liveLocked(now time.Time, sweep, job, lease string) (*coreSweep, *coreJob, error) {
	c.expireLocked(now)
	st, ok := c.sweeps[sweep]
	if !ok {
		return nil, nil, ErrUnknown
	}
	j, ok := st.byID[job]
	if !ok {
		return nil, nil, ErrUnknown
	}
	if j.phase != jobLeased || j.lease != lease {
		return st, j, ErrStaleLease
	}
	return st, j, nil
}

// expireLocked takes back every lease whose heartbeat lapsed. The
// iteration order (sweep arrival, then job order) keeps event sequences
// reproducible under a fake clock.
func (c *Core) expireLocked(now time.Time) {
	if c.cfg.LeaseTTL <= 0 {
		return
	}
	for _, id := range c.order {
		st := c.sweeps[id]
		if st.ended {
			continue
		}
		for _, j := range st.jobs {
			if j.phase == jobLeased && now.After(j.expires) {
				if c.cfg.OnExpire != nil {
					c.cfg.OnExpire()
				}
				c.retryOrFailLocked(st, j, fmt.Errorf("lease expired (worker %s lost)", j.worker))
			}
		}
	}
}

// retryOrFailLocked revokes a job's lease after a loss or an error:
// requeue while attempts remain, else fail the job and skip every job
// and point aggregate of its sweep that has not finished. Skipped
// leases are revoked; their holders learn it from the stale-lease
// answer to their next call.
func (c *Core) retryOrFailLocked(st *coreSweep, j *coreJob, err error) {
	j.lease, j.worker = "", ""
	if j.attempts < c.cfg.MaxAttempts {
		j.phase = jobPending
		c.emitLocked(st, Event{Type: EventJobLost, Job: j.ID, StepsDone: j.stepsDone, StepsTotal: j.StepsTotal,
			Err: fmt.Sprintf("%v; attempt %d/%d, will redispatch", err, j.attempts, c.cfg.MaxAttempts)})
		return
	}
	if c.cfg.MaxAttempts > 1 {
		err = fmt.Errorf("%w; retry budget exhausted (%d attempts)", err, j.attempts)
	}
	j.phase = jobFailed
	c.emitLocked(st, Event{Type: EventJobFailed, Job: j.ID, Err: err.Error()})
	st.err = fmt.Errorf("job %s: %w", j.ID, err)
	for _, o := range st.jobs {
		if o.phase == jobPending || o.phase == jobLeased {
			o.phase = jobSkipped
			o.lease, o.worker = "", ""
			c.emitLocked(st, Event{Type: EventJobSkipped, Job: o.ID})
		}
	}
	for pt, done := range st.aggDone {
		if !done {
			st.aggDone[pt] = true
			c.emitLocked(st, Event{Type: EventJobSkipped, Job: AggregateName(st.points[pt][0].Scenario)})
		}
	}
	c.finishLocked(st)
}

// memoLocked completes a sweep's pending jobs from the store: all of
// them, or only those under key when it is set. A hit emits the same
// started/progress/done shape as a computed job.
func (c *Core) memoLocked(st *coreSweep, key string) {
	if c.cfg.Store == nil {
		return
	}
	for _, j := range st.jobs {
		if j.phase != jobPending || j.StoreKey == "" || (key != "" && j.StoreKey != key) {
			continue
		}
		out, ok := memoReplica(c.cfg.Store, j.StoreKey)
		if !ok {
			continue
		}
		c.emitLocked(st, Event{Type: EventJobStarted, Job: j.ID})
		c.emitLocked(st, Event{Type: EventJobProgress, Job: j.ID, Scenario: j.Scenario,
			Replica: j.Replica, StepsDone: j.StepsTotal, StepsTotal: j.StepsTotal})
		c.completeLocked(st, j, out)
	}
}

// completeLocked records a job's output, then fans in its point and
// ends the sweep once they are whole.
func (c *Core) completeLocked(st *coreSweep, j *coreJob, out *ReplicaResult) {
	j.phase = jobDone
	j.stepsDone = j.StepsTotal
	j.output = out
	j.ckpt = nil
	c.emitLocked(st, Event{Type: EventJobDone, Job: j.ID})

	pt := j.Point
	outs := make([]*ReplicaResult, len(st.points[pt]))
	for _, o := range st.points[pt] {
		if o.phase != jobDone {
			return
		}
		outs[o.Replica] = o.output
	}
	st.aggDone[pt] = true
	agg := AggregateName(j.Scenario)
	c.emitLocked(st, Event{Type: EventJobStarted, Job: agg})
	if st.FanIn != nil {
		st.FanIn(pt, outs)
	}
	c.emitLocked(st, Event{Type: EventAggregateDone, Job: agg, Scenario: j.Scenario})
	c.emitLocked(st, Event{Type: EventJobDone, Job: agg})
	c.finishLocked(st)
}

// finishLocked ends the sweep once it failed or every point fanned in.
func (c *Core) finishLocked(st *coreSweep) {
	if st.ended {
		return
	}
	if st.err == nil {
		for _, done := range st.aggDone {
			if !done {
				return
			}
		}
	}
	st.ended = true
	if st.OnDone == nil {
		return
	}
	if st.err != nil {
		st.OnDone(nil, st.err)
		return
	}
	outs := make([][]*ReplicaResult, len(st.points))
	for pt, jobs := range st.points {
		outs[pt] = make([]*ReplicaResult, len(jobs))
		for _, j := range jobs {
			outs[pt][j.Replica] = j.output
		}
	}
	st.OnDone(outs, nil)
}

func (c *Core) emitLocked(st *coreSweep, e Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(st.ID, e)
	}
}

func (st *coreSweep) count(ph jobPhase) int {
	n := 0
	for _, j := range st.jobs {
		if j.phase == ph {
			n++
		}
	}
	return n
}

func (st *coreSweep) ckptFile(j *coreJob) FileCkptStore {
	return FileCkptStore{Path: jobCkptPath(st.CkptDir, j.Point, j.Replica)}
}
