package run

import (
	"errors"
	"testing"
	"time"
)

type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

// coreFixture is a leased core over one point of two replicas with a
// fake clock, recording events and the sweep's end.
type coreFixture struct {
	core   *Core
	clk    *fakeClock
	events []Event
	ended  bool
	err    error
	outs   [][]*ReplicaResult
}

func newCoreFixture(t *testing.T, ttl time.Duration, attempts int) *coreFixture {
	t.Helper()
	f := &coreFixture{clk: &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}}
	f.core = NewCore(CoreConfig{LeaseTTL: ttl, MaxAttempts: attempts, Now: f.clk.now,
		OnEvent: func(_ string, e Event) { f.events = append(f.events, e) }})
	jobs := []Job{
		{ID: JobName("p", 0), Replica: 0, StepsTotal: 8, Scenario: "p"},
		{ID: JobName("p", 1), Replica: 1, StepsTotal: 8, Scenario: "p"},
	}
	f.core.Add(Sweep{ID: "sw", Jobs: jobs, OnDone: func(outs [][]*ReplicaResult, err error) {
		if f.ended {
			t.Error("OnDone called twice")
		}
		f.ended, f.outs, f.err = true, outs, err
	}})
	return f
}

func (f *coreFixture) count(typ EventType, job string) int {
	n := 0
	for _, e := range f.events {
		if e.Type == typ && (job == "" || e.Job == job) {
			n++
		}
	}
	return n
}

func mustLease(t *testing.T, c *Core, worker string) *Lease {
	t.Helper()
	l := c.Poll(worker)
	if l == nil {
		t.Fatalf("poll %s: expected a lease, got none", worker)
	}
	return l
}

// TestCoreLeaseExpiryEdges: a heartbeat just after expiry is stale,
// stale uploads and completions are rejected, the job redispatches
// under a fresh lease, a duplicate completion from the winner is acked
// and the loser's is not.
func TestCoreLeaseExpiryEdges(t *testing.T) {
	f := newCoreFixture(t, 10*time.Second, 3)
	c := f.core
	l1 := mustLease(t, c, "w1")
	if _, err := c.Heartbeat(l1.Sweep, l1.Job.ID, l1.LeaseID, 2); err != nil {
		t.Fatalf("live heartbeat: %v", err)
	}
	f.clk.advance(11 * time.Second)
	if _, err := c.Heartbeat(l1.Sweep, l1.Job.ID, l1.LeaseID, 3); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("post-expiry heartbeat: got %v, want ErrStaleLease", err)
	}
	if err := c.SaveCheckpoint(l1.Sweep, l1.Job.ID, l1.LeaseID, []byte("x")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale upload: got %v, want ErrStaleLease", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job.ID, l1.LeaseID, &ReplicaResult{}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete: got %v, want ErrStaleLease", err)
	}
	if n := f.count(EventJobLost, l1.Job.ID); n != 1 {
		t.Fatalf("job-lost events: got %d, want 1", n)
	}

	l2 := mustLease(t, c, "w2")
	if l2.Job.ID != l1.Job.ID || l2.LeaseID == l1.LeaseID {
		t.Fatalf("redispatch: got %s under %s, want %s under a new lease", l2.Job.ID, l2.LeaseID, l1.Job.ID)
	}
	out := &ReplicaResult{NFlow: 1}
	if err := c.Complete(l2.Sweep, l2.Job.ID, l2.LeaseID, out); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := c.Complete(l2.Sweep, l2.Job.ID, l2.LeaseID, out); err != nil {
		t.Fatalf("duplicate complete: %v", err)
	}
	if err := c.Complete(l1.Sweep, l1.Job.ID, l1.LeaseID, out); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("loser complete: got %v, want ErrStaleLease", err)
	}
	if n := f.count(EventJobDone, l2.Job.ID); n != 1 {
		t.Fatalf("job-done events: got %d, want 1", n)
	}
	if _, err := c.Heartbeat("nope", l2.Job.ID, l2.LeaseID, 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown sweep: got %v, want ErrUnknown", err)
	}
}

// TestCoreDoubleDispatch: a leased job is never handed out again while
// heartbeats keep its lease alive, and the pool bound holds.
func TestCoreDoubleDispatch(t *testing.T) {
	f := newCoreFixture(t, 10*time.Second, 3)
	c := f.core
	l1, l2 := mustLease(t, c, "w1"), mustLease(t, c, "w2")
	if l1.Job.ID == l2.Job.ID {
		t.Fatalf("double dispatch: both workers got %s", l1.Job.ID)
	}
	for i := 0; i < 3; i++ {
		f.clk.advance(6 * time.Second)
		for _, l := range []*Lease{l1, l2} {
			if _, err := c.Heartbeat(l.Sweep, l.Job.ID, l.LeaseID, i); err != nil {
				t.Fatalf("heartbeat lost lease %s: %v", l.Job.ID, err)
			}
		}
		if l := c.Poll("w3"); l != nil {
			t.Fatalf("heartbeat-renewed job redispatched: %s", l.Job.ID)
		}
	}
	if h := c.Holdings(); h["w1"].Job != l1.Job.ID || h["w2"].Job != l2.Job.ID || len(h) != 2 {
		t.Fatalf("holdings %+v", h)
	}

	pooled := NewCore(CoreConfig{})
	pooled.Add(Sweep{ID: "sw", Pool: 1, Jobs: []Job{{ID: "a/r000", Scenario: "a"}, {ID: "a/r001", Replica: 1, Scenario: "a"}}})
	mustLease(t, pooled, "w")
	if l := pooled.Poll("w"); l != nil {
		t.Fatalf("pool 1 sweep leased a second job: %s", l.Job.ID)
	}
}

// TestCoreRetryBudget: a job that keeps losing its lease fails
// permanently once its budget is spent; its sibling and the point
// aggregate are skipped, the sweep ends with an error wrapping the
// loss, and nothing dispatches afterwards.
func TestCoreRetryBudget(t *testing.T) {
	f := newCoreFixture(t, 10*time.Second, 2)
	c := f.core
	first := mustLease(t, c, "w1")
	for attempt := 1; ; attempt++ {
		f.clk.advance(11 * time.Second)
		l := c.Poll("w1")
		if l == nil {
			break
		}
		if l.Job.ID != first.Job.ID {
			t.Fatalf("attempt %d dispatched %s, want %s", attempt, l.Job.ID, first.Job.ID)
		}
		if attempt > 4 {
			t.Fatal("job kept redispatching past its budget")
		}
	}
	if n := f.count(EventJobFailed, first.Job.ID); n != 1 {
		t.Fatalf("job-failed events: got %d, want 1", n)
	}
	if n := f.count(EventJobSkipped, AggregateName("p")); n != 1 {
		t.Fatalf("aggregate skip events: got %d, want 1", n)
	}
	if n := f.count(EventJobSkipped, ""); n != 2 {
		t.Fatalf("job-skipped events: got %d, want 2", n)
	}
	if !f.ended || f.err == nil || f.outs != nil {
		t.Fatalf("sweep end: ended %v, err %v, outs %v", f.ended, f.err, f.outs)
	}
}

// TestCoreFailKeepsError: a reported error with one attempt fails the
// sweep at once, and the sweep's error wraps the job's error value.
func TestCoreFailKeepsError(t *testing.T) {
	f := newCoreFixture(t, 0, 1)
	boom := errors.New("boom")
	l := mustLease(t, f.core, "w")
	if err := f.core.Fail(l.Sweep, l.Job.ID, l.LeaseID, boom); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(f.err, boom) {
		t.Fatalf("sweep error %v does not wrap the job's error", f.err)
	}
	if n := f.count(EventJobLost, ""); n != 0 {
		t.Fatalf("job-lost events with a budget of one: got %d", n)
	}
}

// TestCoreReleaseAndResume: a released job returns to the queue without
// burning an attempt, its in-memory checkpoint survives for the next
// holder, and the sweep ends with every output in place.
func TestCoreReleaseAndResume(t *testing.T) {
	f := newCoreFixture(t, 10*time.Second, 1)
	c := f.core
	l1 := mustLease(t, c, "w1")
	if err := c.SaveCheckpoint(l1.Sweep, l1.Job.ID, l1.LeaseID, []byte("state")); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(l1.Sweep, l1.Job.ID, l1.LeaseID, 4); err != nil {
		t.Fatal(err)
	}
	if n := f.count(EventJobReleased, l1.Job.ID); n != 1 {
		t.Fatalf("job-released events: got %d, want 1", n)
	}
	l2 := mustLease(t, c, "w2")
	if l2.Job.ID != l1.Job.ID || !l2.HasCheckpoint {
		t.Fatalf("after release: leased %s (checkpoint %v), want %s with its checkpoint", l2.Job.ID, l2.HasCheckpoint, l1.Job.ID)
	}
	if data, err := c.LoadCheckpoint(l2.Sweep, l2.Job.ID, l2.LeaseID); err != nil || string(data) != "state" {
		t.Fatalf("resumed checkpoint %q, %v", data, err)
	}
	l3 := mustLease(t, c, "w3")
	for _, l := range []*Lease{l2, l3} {
		if err := c.Complete(l.Sweep, l.Job.ID, l.LeaseID, &ReplicaResult{NFlow: l.Job.Replica}); err != nil {
			t.Fatal(err)
		}
	}
	if !f.ended || f.err != nil || len(f.outs) != 1 || f.outs[0][0].NFlow != 0 || f.outs[0][1].NFlow != 1 {
		t.Fatalf("sweep end: ended %v, err %v, outs %v", f.ended, f.err, f.outs)
	}
	if n := f.count(EventAggregateDone, AggregateName("p")); n != 1 {
		t.Fatalf("aggregate-done events: got %d, want 1", n)
	}
}
