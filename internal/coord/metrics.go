package coord

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dsmc"
	"dsmc/internal/obs"
)

// Coordinator telemetry. The lifecycle counters are package-level on
// obs.Default — tests build many Coordinators per process and a
// registry child registers once — while the instance-shaped numbers
// (queue depth, per-worker rows) are rendered on demand by
// WriteMetrics, so no per-instance registration or unregistration
// machinery is needed.
var (
	mLeaseGrants = obs.Default.NewCounter("dsmc_coord_lease_grants_total",
		"Job leases handed to polling workers (every dispatch, including redispatches).")
	mLeaseExpiries = obs.Default.NewCounter("dsmc_coord_lease_expiries_total",
		"Leases revoked after missed heartbeats; each expiry triggers a retry or a permanent failure.")
	mStaleRejects = obs.Default.NewCounter("dsmc_coord_stale_lease_rejects_total",
		"Zombie fencings: heartbeats answered abandon plus mutations rejected because their lease was no longer current.")
	mRetries = obs.Default.NewCounter("dsmc_coord_retries_total",
		"Jobs requeued for redispatch after a lost lease or a worker-reported error.")
	mJobFailures = obs.Default.NewCounter("dsmc_coord_job_failures_total",
		"Jobs failed permanently after exhausting their dispatch budget.")
	mCompletions = obs.Default.NewCounter("dsmc_coord_completions_total",
		"Job outputs accepted (duplicate deliveries of a winning completion not counted).")
	mReleases = obs.Default.NewCounter("dsmc_coord_releases_total",
		"Graceful lease hand-backs (worker shutdown); no dispatch attempt consumed.")
	mHeartbeats = obs.Default.NewCounter("dsmc_coord_heartbeats_total",
		"Heartbeats processed, including those answered abandon.")
	mJobSeconds = obs.Default.NewHistogram("dsmc_coord_job_seconds",
		"Dispatch-to-complete latency of finished jobs, per winning lease.", obs.DurationBuckets)
)

// Worker-side instruments (the pull loop's view of the same protocol).
var (
	mWorkerPolls = obs.Default.NewCounter("dsmc_worker_polls_total",
		"Coordinator polls issued, fruitful or not.")
	mWorkerPollErrors = obs.Default.NewCounter("dsmc_worker_poll_errors_total",
		"Polls that failed (coordinator unreachable); each triggers a backoff sleep.")
	mWorkerJobs = obs.Default.NewCounter("dsmc_worker_jobs_total",
		"Jobs leased and executed, including ones later abandoned to a zombie fence.")
	mWorkerIORetries = obs.Default.NewCounter("dsmc_worker_io_retries_total",
		"Coordinator-call retries after transient failures (checkpoint uploads, completions).")
)

// Stats returns a point-in-time snapshot of the coordinator: leased and
// queued job counts across unfinished sweeps, the known worker count,
// and the age of the stalest live worker's last contact. It feeds the
// NDJSON keepalive records dsmcd emits.
func (c *Coordinator) Stats() dsmc.SweepStatus {
	var st dsmc.SweepStatus
	st.ActiveJobs, st.QueueDepth = c.core.Backlog()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	st.Workers = len(c.workers)
	for _, w := range c.workers {
		if age := now.Sub(w.lastSeen).Seconds(); age > st.MaxHeartbeatAgeSec {
			st.MaxHeartbeatAgeSec = age
		}
	}
	return st
}

// WriteMetrics renders the coordinator's instance-shaped telemetry in
// the Prometheus text exposition format: queue/in-flight gauges, one
// heartbeat-age row per known worker, and the fleet re-emission — each
// worker's last heartbeat-piggybacked engine snapshot, re-namespaced
// dsmc_fleet_* with a worker label so external workers' instruments
// are scrapable at the coordinator without name collisions against
// this process's own dsmc_engine_* families. dsmcd composes it after
// obs.Default.WriteText on GET /metrics.
func (c *Coordinator) WriteMetrics(w io.Writer) error {
	inflight, queued := c.core.Backlog()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()

	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("dsmc_coord_queue_depth", "Jobs waiting for dispatch across unfinished sweeps.", float64(queued))
	gauge("dsmc_coord_inflight_jobs", "Jobs currently leased out.", float64(inflight))
	gauge("dsmc_coord_workers", "Workers that have ever contacted this coordinator.", float64(len(c.workers)))

	ids := make([]string, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if len(ids) > 0 {
		b.WriteString("# HELP dsmc_coord_worker_heartbeat_age_seconds Seconds since the worker's last contact.\n")
		b.WriteString("# TYPE dsmc_coord_worker_heartbeat_age_seconds gauge\n")
		for _, id := range ids {
			fmt.Fprintf(&b, "dsmc_coord_worker_heartbeat_age_seconds{worker=%q} %g\n",
				id, now.Sub(c.workers[id].lastSeen).Seconds())
		}
	}

	// Fleet re-emission, grouped per family name so TYPE comments are
	// emitted once. Snapshot samples carry no type; untyped is honest.
	fleet := map[string][]string{}
	var fleetNames []string
	for _, id := range ids {
		for _, s := range c.workers[id].metrics {
			name := "dsmc_fleet_" + strings.TrimPrefix(s.Name, "dsmc_")
			labels := fmt.Sprintf("{worker=%q", id)
			if s.Labels != "" {
				labels += "," + strings.TrimPrefix(s.Labels, "{")
			} else {
				labels += "}"
			}
			if _, seen := fleet[name]; !seen {
				fleetNames = append(fleetNames, name)
			}
			fleet[name] = append(fleet[name], fmt.Sprintf("%s%s %g\n", name, labels, s.Value))
		}
	}
	sort.Strings(fleetNames)
	for _, name := range fleetNames {
		fmt.Fprintf(&b, "# HELP %s Re-emitted worker instrument (last heartbeat snapshot).\n# TYPE %s untyped\n", name, name)
		lines := fleet[name]
		sort.Strings(lines)
		for _, l := range lines {
			b.WriteString(l)
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}
