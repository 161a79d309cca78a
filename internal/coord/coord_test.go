package coord

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"dsmc"
	"dsmc/internal/store"
)

// tinySpec is a fast two-replica, one-point sweep used across tests.
func tinySpec() dsmc.SweepSpec {
	cfg := dsmc.PaperConfig()
	cfg.GridNX, cfg.GridNY = 48, 24
	cfg.Wedge = &dsmc.WedgeSpec{LeadX: 10, Base: 12, AngleDeg: 30}
	cfg.ParticlesPerCell = 3
	cfg.Seed = 7
	return dsmc.SweepSpec{
		Name:            "coord-test",
		Base:            cfg,
		Points:          []dsmc.SweepPoint{{Name: "rarefied"}},
		Replicas:        2,
		WarmSteps:       2,
		SampleSteps:     6,
		CheckpointEvery: 2,
	}
}

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// eventLog records emitted events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []dsmc.SweepEvent
}

func (l *eventLog) add(_ string, e dsmc.SweepEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) count(typ, job string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Type == typ && (job == "" || e.Job == job) {
			n++
		}
	}
	return n
}

// testStore adapts coordinator checkpoint calls into a JobCheckpoint for
// driving RunSweepJob by hand under a specific lease.
type testStore struct {
	c *Coordinator
	l *Lease
}

func (s testStore) Load() ([]byte, error) { return s.c.LoadCheckpoint(s.l.Sweep, s.l.Job, s.l.LeaseID) }
func (s testStore) Save(data []byte) error {
	return s.c.SaveCheckpoint(s.l.Sweep, s.l.Job, s.l.LeaseID, data)
}
func (s testStore) Discard() error { return nil }

func runLeasedJob(t *testing.T, c *Coordinator, l *Lease) *dsmc.ReplicaOutput {
	t.Helper()
	var spec dsmc.SweepSpec
	if err := json.Unmarshal(l.Spec, &spec); err != nil {
		t.Fatalf("lease spec: %v", err)
	}
	out, err := dsmc.RunSweepJob(context.Background(), spec, l.Point, l.Replica,
		dsmc.SweepJobIO{Checkpoint: testStore{c, l}})
	if err != nil {
		t.Fatalf("run job %s: %v", l.Job, err)
	}
	return out
}

func mustPoll(t *testing.T, c *Coordinator, worker string) *Lease {
	t.Helper()
	l, err := c.Poll(worker)
	if err != nil {
		t.Fatalf("poll %s: %v", worker, err)
	}
	if l == nil {
		t.Fatalf("poll %s: expected a lease, got none", worker)
	}
	return l
}

// TestOutputCodecRoundTrip checks the binary codec is bit-exact,
// including the NaN shock angle JSON cannot carry.
func TestOutputCodecRoundTrip(t *testing.T) {
	spec := tinySpec()
	out, err := dsmc.RunSweepJob(context.Background(), spec, 0, 0, dsmc.SweepJobIO{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeOutput(EncodeOutput(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Fields) != len(out.Fields) {
		t.Fatalf("field count %d != %d", len(dec.Fields), len(out.Fields))
	}
	for name, col := range out.Fields {
		got := dec.Fields[name]
		if len(got) != len(col) {
			t.Fatalf("field %s length %d != %d", name, len(got), len(col))
		}
		for i := range col {
			if got[i] != col[i] {
				t.Fatalf("field %s[%d]: %v != %v", name, i, got[i], col[i])
			}
		}
	}
	if dec.Collisions != out.Collisions || dec.NFlow != out.NFlow {
		t.Fatalf("diagnostics differ: %+v vs %+v", dec, out)
	}
	// NaN round-trip: same bit pattern counts as equal here.
	if (dec.ShockAngleDeg == dec.ShockAngleDeg) != (out.ShockAngleDeg == out.ShockAngleDeg) {
		t.Fatalf("shock angle NaN-ness differs")
	}

	// Corruption must be detected, not decoded.
	enc := EncodeOutput(out)
	enc[len(enc)/2] ^= 0x40
	if _, err := DecodeOutput(enc); err == nil {
		t.Fatal("corrupted output decoded without error")
	}
}

// TestLeaseExpiryEdgeCases drives the fake clock through the awkward
// windows: a heartbeat landing just after expiry, uploads and
// completions from the expired lease, and duplicate completion from the
// winning lease.
func TestLeaseExpiryEdgeCases(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 3, OnEvent: log.add, now: clk.now})
	if err := c.AddSweep("sw", tinySpec(), nil); err != nil {
		t.Fatal(err)
	}

	l1 := mustPoll(t, c, "w1")
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l1.Sweep, Job: l1.Job, Lease: l1.LeaseID}); status != HBOK {
		t.Fatalf("live heartbeat: got %q", status)
	}

	// The lease expires; the worker's next heartbeat arrives just after.
	clk.advance(11 * time.Second)
	status, err := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l1.Sweep, Job: l1.Job, Lease: l1.LeaseID})
	if err != nil || status != HBAbandon {
		t.Fatalf("post-expiry heartbeat: got %q, %v; want abandon", status, err)
	}
	// Stale uploads and completions are rejected idempotently.
	if err := c.SaveCheckpoint(l1.Sweep, l1.Job, l1.LeaseID, []byte("x")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale upload: got %v, want ErrStaleLease", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job, l1.LeaseID, &dsmc.ReplicaOutput{}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete: got %v, want ErrStaleLease", err)
	}
	if n := log.count("job-lost", l1.Job); n != 1 {
		t.Fatalf("job-lost events for %s: got %d, want 1", l1.Job, n)
	}

	// The job redispatches to another worker, which completes it.
	l2 := mustPoll(t, c, "w2")
	if l2.Job != l1.Job {
		t.Fatalf("redispatch: got %s, want %s", l2.Job, l1.Job)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("redispatch reused the lease ID")
	}
	out := runLeasedJob(t, c, l2)
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, out); err != nil {
		t.Fatalf("complete: %v", err)
	}
	// Duplicate completion from the winning lease is acked; the loser
	// still gets a stale rejection.
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, out); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job, l1.LeaseID, out); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("loser complete: got %v, want ErrStaleLease", err)
	}
	if n := log.count("job-done", l2.Job); n != 1 {
		t.Fatalf("job-done events: got %d, want 1", n)
	}
}

// TestDoubleDispatchPrevention: a leased job is never handed out again
// before its lease expires, and an idle coordinator answers "no work".
func TestDoubleDispatchPrevention(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	if err := c.AddSweep("sw", tinySpec(), nil); err != nil {
		t.Fatal(err)
	}

	l1 := mustPoll(t, c, "w1")
	l2 := mustPoll(t, c, "w2")
	if l1.Job == l2.Job {
		t.Fatalf("double dispatch: both workers got %s", l1.Job)
	}
	// Both replicas are leased; a third poll gets nothing, even repeated.
	for i := 0; i < 3; i++ {
		if l, _ := c.Poll("w3"); l != nil {
			t.Fatalf("poll with all jobs leased returned %s", l.Job)
		}
		clk.advance(time.Second)
	}
	// Heartbeats keep both leases alive across what would be an expiry.
	for i := 0; i < 3; i++ {
		clk.advance(6 * time.Second)
		for _, l := range []*Lease{l1, l2} {
			if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID}); status != HBOK {
				t.Fatalf("heartbeat lost lease %s", l.Job)
			}
		}
		if l, _ := c.Poll("w3"); l != nil {
			t.Fatalf("heartbeat-renewed job redispatched: %s", l.Job)
		}
	}
}

// TestRetryBudgetExhaustion: a job that keeps losing its lease fails
// permanently, the point's aggregate and undispatched jobs are skipped,
// and the sweep reports the first error.
func TestRetryBudgetExhaustion(t *testing.T) {
	clk := newFakeClock()
	var log eventLog
	done := make(chan error, 1)
	c := New(Config{LeaseTTL: 10 * time.Second, MaxAttempts: 2, OnEvent: log.add, now: clk.now})
	err := c.AddSweep("sw", tinySpec(), func(res *dsmc.SweepResult, err error) {
		if res != nil {
			done <- errors.New("got a result from a failed sweep")
			return
		}
		done <- err
	})
	if err != nil {
		t.Fatal(err)
	}

	first := mustPoll(t, c, "w1")
	for attempt := 1; ; attempt++ {
		clk.advance(11 * time.Second)
		l, _ := c.Poll("w1")
		if l == nil {
			break
		}
		if l.Job != first.Job {
			t.Fatalf("attempt %d dispatched %s, want %s", attempt, l.Job, first.Job)
		}
		if attempt > 4 {
			t.Fatal("job kept redispatching past its budget")
		}
	}

	if n := log.count("job-failed", first.Job); n != 1 {
		t.Fatalf("job-failed events: got %d, want 1", n)
	}
	agg := dsmc.AggregateJobID("rarefied")
	if n := log.count("job-skipped", agg); n != 1 {
		t.Fatalf("aggregate skip events: got %d, want 1", n)
	}
	if n := log.count("job-skipped", ""); n != 2 { // sibling replica + aggregate
		t.Fatalf("job-skipped events: got %d, want 2", n)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("failed sweep finished without an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never finished after failure")
	}
	// The failed sweep offers no more work.
	if l, _ := c.Poll("w9"); l != nil {
		t.Fatalf("failed sweep dispatched %s", l.Job)
	}
}

// TestRedispatchResumeBitIdentity is the heart of the failure model: a
// worker checkpoints, dies (lease expires), the job redispatches, the
// second worker resumes from the uploaded checkpoint — and the sweep's
// result is bit-identical to an uninterrupted in-process run.
func TestRedispatchResumeBitIdentity(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	clk := newFakeClock()
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	err = c.AddSweep("sw", spec, func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 leases r000, runs a few steps (uploading checkpoints),
	// then "crashes": its context dies and it never completes.
	l1 := mustPoll(t, c, "w1")
	var spec1 dsmc.SweepSpec
	if err := json.Unmarshal(l1.Spec, &spec1); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	_, err = dsmc.RunSweepJob(ctx1, spec1, l1.Point, l1.Replica, dsmc.SweepJobIO{
		Checkpoint: testStore{c, l1},
		Progress: func(step, total int) {
			if step >= 4 {
				cancel1() // die mid-job, checkpoint already uploaded
			}
		},
	})
	cancel1()
	if err == nil {
		t.Fatal("crashed job reported success")
	}

	// Its lease lapses; the job redispatches with the checkpoint flagged.
	clk.advance(11 * time.Second)
	l2 := mustPoll(t, c, "w2")
	if l2.Job != l1.Job {
		t.Fatalf("redispatched %s, want %s", l2.Job, l1.Job)
	}
	if !l2.HasCheckpoint {
		t.Fatal("redispatched lease does not advertise the uploaded checkpoint")
	}
	if err := c.Complete(l2.Sweep, l2.Job, l2.LeaseID, runLeasedJob(t, c, l2)); err != nil {
		t.Fatal(err)
	}

	// The sibling replica runs normally.
	l3 := mustPoll(t, c, "w2")
	if err := c.Complete(l3.Sweep, l3.Job, l3.LeaseID, runLeasedJob(t, c, l3)); err != nil {
		t.Fatal(err)
	}

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, err := json.Marshal(fin.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("redispatched+resumed sweep result differs from uninterrupted run")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep never finished")
	}
}

// TestWorkersEndToEnd runs real pull-workers against an in-process
// coordinator — one worker with injected upload failures (absorbed by
// retry/backoff) — and checks the assembled result is bit-identical to
// dsmc.RunSweep.
func TestWorkersEndToEnd(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var log eventLog
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: 30 * time.Second, OnEvent: log.add})
	err = c.AddSweep("sw", spec, func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		cfg := WorkerConfig{
			ID:             map[int]string{0: "flaky", 1: "steady"}[i],
			Queue:          LocalQueue{c},
			HeartbeatEvery: 50 * time.Millisecond,
			PollEvery:      10 * time.Millisecond,
			RetryBase:      5 * time.Millisecond,
		}
		if i == 0 {
			cfg.Chaos = Chaos{FailUploads: 2}
		}
		w := NewWorker(cfg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, _ := json.Marshal(fin.res)
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("distributed sweep result differs from in-process run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distributed sweep never finished")
	}
	cancel()
	wg.Wait()

	if n := log.count("job-done", ""); n < 2 {
		t.Fatalf("job-done events: got %d, want >= 2", n)
	}
	ws := c.Workers()
	if len(ws) != 2 {
		t.Fatalf("worker fleet: got %d, want 2", len(ws))
	}
}

// TestGracefulReleaseResume: cancelling a worker mid-job checkpoints,
// releases the lease without burning retry budget, and a second worker
// resumes to a bit-identical result.
func TestGracefulReleaseResume(t *testing.T) {
	spec := tinySpec()
	spec.SampleSteps = 60 // long enough to cancel mid-flight
	spec.CheckpointEvery = 2
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	var log eventLog
	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{LeaseTTL: 30 * time.Second, OnEvent: log.add})
	err = c.AddSweep("sw", spec, func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 starts, then is shut down as soon as it reports progress.
	ctx1, cancel1 := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	w1 := NewWorker(WorkerConfig{
		ID: "leaver", Queue: localProgressQueue{LocalQueue{c}, func(hb Heartbeat) {
			if hb.StepsDone >= 4 {
				once.Do(func() { close(started) })
			}
		}},
		HeartbeatEvery: 20 * time.Millisecond, PollEvery: 5 * time.Millisecond,
		RetryBase: 5 * time.Millisecond,
	})
	w1done := make(chan struct{})
	go func() {
		defer close(w1done)
		w1.Run(ctx1)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never made progress")
	}
	cancel1()
	select {
	case <-w1done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker 1 never drained")
	}
	if n := log.count("job-released", ""); n != 1 {
		t.Fatalf("job-released events: got %d, want 1", n)
	}

	// Worker 2 finishes the sweep, resuming the released job.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	w2 := NewWorker(WorkerConfig{
		ID: "finisher", Queue: LocalQueue{c},
		HeartbeatEvery: 20 * time.Millisecond, PollEvery: 5 * time.Millisecond,
		RetryBase: 5 * time.Millisecond,
	})
	w2done := make(chan struct{})
	go func() {
		defer close(w2done)
		w2.Run(ctx2)
	}()

	select {
	case fin := <-done:
		if fin.err != nil {
			t.Fatal(fin.err)
		}
		gotJSON, _ := json.Marshal(fin.res)
		if string(gotJSON) != string(wantJSON) {
			t.Fatal("released+resumed sweep result differs from uninterrupted run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("sweep never finished after release")
	}
	cancel2()
	<-w2done
}

// localProgressQueue lets a test observe heartbeats flowing through a
// LocalQueue.
type localProgressQueue struct {
	LocalQueue
	onHB func(Heartbeat)
}

func (q localProgressQueue) Heartbeat(ctx context.Context, hb Heartbeat) (string, error) {
	q.onHB(hb)
	return q.LocalQueue.Heartbeat(ctx, hb)
}

// TestStoreSatisfiedJobEvents: a job the result store already holds
// completes at registration with the same event shape as a computed
// one — job-started, job-progress with every step done, job-done — and
// is never dispatched.
func TestStoreSatisfiedJobEvents(t *testing.T) {
	spec := tinySpec()
	jobs, err := dsmc.SweepJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dsmc.RunSweepJob(context.Background(), spec, jobs[0].Point, jobs[0].Replica, dsmc.SweepJobIO{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(jobs[0].StoreKey, EncodeOutput(out)); err != nil {
		t.Fatal(err)
	}

	var log eventLog
	c := New(Config{Store: st, OnEvent: log.add})
	if err := c.AddSweep("sw", spec, nil); err != nil {
		t.Fatal(err)
	}
	var got []dsmc.SweepEvent
	for _, e := range log.events {
		if e.Job == jobs[0].ID {
			got = append(got, e)
		}
	}
	if len(got) != 3 || got[0].Type != "job-started" || got[1].Type != "job-progress" || got[2].Type != "job-done" {
		t.Fatalf("store-satisfied job events: %+v, want job-started, job-progress, job-done", got)
	}
	if p := got[1]; p.StepsDone != jobs[0].StepsTotal || p.StepsTotal != jobs[0].StepsTotal {
		t.Fatalf("store-satisfied progress %d/%d, want %d/%d", p.StepsDone, p.StepsTotal, jobs[0].StepsTotal, jobs[0].StepsTotal)
	}
	l := mustPoll(t, c, "w1")
	if l.Job != jobs[1].ID {
		t.Fatalf("dispatched %s, want only the unstored %s", l.Job, jobs[1].ID)
	}
	if l2, _ := c.Poll("w2"); l2 != nil {
		t.Fatalf("store-satisfied job dispatched as %s", l2.Job)
	}
}
