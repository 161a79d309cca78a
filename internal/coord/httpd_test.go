package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dsmc"
)

// TestHTTPTransport drives real workers through the wire protocol —
// HTTPQueue against the coordinator's Handler — with checkpoints on
// disk, and checks bit-identity against the in-process run plus the
// protocol's error mapping for stale leases.
func TestHTTPTransport(t *testing.T) {
	spec := tinySpec()
	want, err := dsmc.RunSweep(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	done := make(chan struct {
		res *dsmc.SweepResult
		err error
	}, 1)
	c := New(Config{DataDir: t.TempDir(), LeaseTTL: 30 * time.Second})
	err = c.AddSweep("sw", spec, func(res *dsmc.SweepResult, err error) {
		done <- struct {
			res *dsmc.SweepResult
			err error
		}{res, err}
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	q := &HTTPQueue{Base: ts.URL}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(WorkerConfig{
			ID:             []string{"h1", "h2"}[i],
			Queue:          q,
			HeartbeatEvery: 50 * time.Millisecond,
			PollEvery:      10 * time.Millisecond,
			RetryBase:      5 * time.Millisecond,
		})
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
			t.Fatal("HTTP-distributed sweep result differs from in-process run")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("HTTP-distributed sweep never finished")
	}
	cancel()
	wg.Wait()

	// Wire-level error mapping: a bogus lease is 410 → ErrStaleLease, an
	// unknown sweep is 404 → ErrUnknown.
	bogus := &Lease{Sweep: "sw", Job: "rarefied/r000", LeaseID: "l999999"}
	if err := q.SaveCheckpoint(context.Background(), bogus, []byte("x")); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("bogus lease upload: got %v, want ErrStaleLease", err)
	}
	missing := &Lease{Sweep: "nope", Job: "rarefied/r000", LeaseID: "l1"}
	if err := q.SaveCheckpoint(context.Background(), missing, []byte("x")); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown sweep upload: got %v, want ErrUnknown", err)
	}
}

// TestOversizedHeartbeatRejected: a control body over 1 MiB gets 400
// and does not renew the lease, which then expires on schedule.
func TestOversizedHeartbeatRejected(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{LeaseTTL: 10 * time.Second, now: clk.now})
	if err := c.AddSweep("sw", tinySpec(), nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	l := mustPoll(t, c, "w1")

	clk.advance(6 * time.Second)
	body, err := json.Marshal(map[string]any{
		"worker": "w1", "sweep": l.Sweep, "job": l.Job, "lease": l.LeaseID, "steps_done": 1,
		"pad": strings.Repeat("x", 2<<20),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/coord/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("2 MiB heartbeat: got status %d, want 400", resp.StatusCode)
	}

	clk.advance(5 * time.Second) // 11s after the grant: past the unrenewed TTL
	if status, _ := c.HandleHeartbeat(Heartbeat{Worker: "w1", Sweep: l.Sweep, Job: l.Job, Lease: l.LeaseID}); status != HBAbandon {
		t.Fatalf("heartbeat after the unrenewed TTL: got %q, want abandon", status)
	}
}
