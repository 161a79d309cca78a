// Command dsmcd is the DSMC job server: it accepts ensemble/parameter-
// sweep specs over HTTP, schedules their replica jobs over a bounded pool
// of whole simulations on the job core RunSweep uses, streams per-job
// progress, and serves the aggregated cross-replica statistics. Every
// job checkpoints its full state (internal/ckpt), so a killed server
// resumes unfinished sweeps on restart — bit-identically to never
// having died.
//
// API (JSON unless noted):
//
//	POST /v1/sweeps               submit a dsmc.SweepSpec; 202 + {id, links}
//	GET  /v1/sweeps               list sweeps with state
//	GET  /v1/sweeps/{id}          status: per-job states and step progress
//	GET  /v1/sweeps/{id}/events   NDJSON progress stream (history + live)
//	GET  /v1/sweeps/{id}/result   aggregated result (409 while running);
//	                              ?quantity=temperature serves one sampled
//	                              quantity's per-point field statistics
//	GET  /v1/sweeps/{id}/trace    flight recorder: the most recent
//	                              per-step engine phase timings (bounded ring)
//	GET  /v1/store                result-store index: artifact keys, content
//	                              hashes, sizes, and totals
//	GET  /v1/store/{sha}          one artifact's raw bytes (octet-stream,
//	                              immutable, ETag = content hash)
//	GET  /metrics                 Prometheus text exposition (engine phase
//	                              histograms, coordinator/worker telemetry,
//	                              result-store hit/miss counters and gauges)
//	GET  /debug/pprof/*           profiling (only with -pprof)
//	GET  /healthz                 liveness
//
// A spec's base is either the legacy flat 2D config ("base") or a
// first-class scenario ("scenario": {"kind": ..., "params": {...}}) —
// any kind, including the 3D shock tube — and "quantities" selects the
// fields sampled in the one accumulation pass (default density). Points
// may override physics knobs and the grid shape; each point's aggregate
// carries its own field shape.
//
// Example session:
//
//	dsmcd -addr :8077 -data /var/lib/dsmcd &
//	curl -s localhost:8077/v1/sweeps -d '{
//	  "base": {"GridNX":98,"GridNY":64,"Wedge":{"LeadX":20,"Base":25,"AngleDeg":30},
//	           "Mach":4,"ThermalSpeed":0.125,"MeanFreePath":0.5,
//	           "ParticlesPerCell":8,"Seed":1988},
//	  "quantities": ["density","temperature","mach"],
//	  "points": [{"name":"rarefied"},{"name":"near-continuum","mean_free_path":0},
//	             {"name":"coarse","grid_nx":64,"grid_ny":48}],
//	  "replicas": 4, "warm_steps": 600, "sample_steps": 300}'
//	curl -s localhost:8077/v1/sweeps/sw-000000           # poll status
//	curl -sN localhost:8077/v1/sweeps/sw-000000/events   # stream progress
//	curl -s localhost:8077/v1/sweeps/sw-000000/result | jq '.points[].shock_angle_deg'
//	curl -s 'localhost:8077/v1/sweeps/sw-000000/result?quantity=temperature'
//
// A 3D base:
//
//	curl -s localhost:8077/v1/sweeps -d '{
//	  "scenario": {"kind":"shock-tube-3d","params":{
//	    "GridNX":120,"GridNY":8,"GridNZ":8,"ThermalSpeed":0.125,
//	    "PistonSpeed":0.131,"ParticlesPerCell":8,"Seed":3}},
//	  "quantities": ["density","velocity-x","temperature"],
//	  "points": [{"name":"long","grid_nx":160},{"name":"fast","piston_speed":0.2}],
//	  "replicas": 2, "warm_steps": 100, "sample_steps": 100}'
//
// # Distributed execution
//
// Sweeps run through a coordinator (internal/coord): jobs are handed out
// under leases to pull-based workers that heartbeat, upload periodic
// checkpoints, and upload the final output. By default the coordinator's
// workers are -pool embedded goroutines — the single-process case is
// just that machinery with local transport — but the same protocol is
// served over HTTP under /coord/v1/, so extra worker processes can join:
//
//	dsmcd -addr :8077 -data /var/lib/dsmcd &     # coordinator + embedded workers
//	dsmcd -worker -coord http://host:8077 &      # extra pull-worker, any machine
//
// A worker whose heartbeats stop (crash, partition) loses its lease; the
// coordinator redispatches the job and the next worker resumes from the
// last uploaded checkpoint, bit-identical to a never-failed run. A job
// that exhausts -max-retries dispatches fails the sweep, skipping its
// unfinished jobs as an in-process run does. GET /coord/v1/workers
// reports the fleet.
//
// # Result store and memoization
//
// Every finished replica output is published to a content-addressed
// result store under <data>/store/, keyed by the job's determinism
// contract (spec fingerprint, master seed, point, replica). A submitted
// sweep is first satisfied from the store: jobs whose artifacts already
// exist complete instantly without dispatch, so a restarted or
// overlapping sweep never recomputes finished work — and because
// replica bits are a pure function of the key, the memoized aggregate
// is bit-identical to a cold run's. Artifacts are checksum-verified on
// every read (corruption quarantines the artifact and falls back to
// recompute), and results are served with content-addressed cache
// semantics: strong ETags, immutable Cache-Control, If-None-Match →
// 304. -store-budget bounds the store's size; the oldest artifacts are
// evicted past the budget (they are a cache — eviction only costs
// recomputation).
//
// # Observability
//
// GET /metrics serves the Prometheus text format: per-phase engine
// step-time histograms, coordinator lease/retry/queue telemetry, and
// per-worker fleet gauges (external workers' engine instruments arrive
// piggybacked on their heartbeats and are re-emitted as dsmc_fleet_*
// with a worker label). GET /v1/sweeps/{id}/trace serves the sweep's
// flight recorder — the most recent per-step phase timings, fed by the
// same heartbeats — and -pprof enables net/http/pprof at /debug/pprof/.
//
// The NDJSON event stream emits {"type":"keepalive","status":{...}}
// records during quiet phases (every -keepalive), carrying a
// coordinator snapshot: active and queued jobs, worker count, and the
// stalest heartbeat age. "trace" records carry flight-recorder batches
// live (not replayed in history). Consumers must ignore unknown record
// types. On SIGINT/SIGTERM the server drains: in-flight jobs checkpoint
// their exact position and release their leases, and the HTTP listener
// shuts down within -shutdown-timeout; a restart resumes bit-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsmc/internal/coord"
)

func main() {
	log.SetFlags(log.LstdFlags | log.LUTC)
	log.SetPrefix("dsmcd: ")
	addr := flag.String("addr", ":8077", "listen address")
	data := flag.String("data", "dsmcd-data", "data directory (specs, checkpoints, results)")
	pool := flag.Int("pool", 0, "embedded worker count = max concurrent simulations (0 = NumCPU)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "job lease TTL; a worker silent this long loses its job")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "worker heartbeat interval (must be well under the lease TTL)")
	maxRetries := flag.Int("max-retries", 3, "dispatch attempts per job before the sweep fails")
	keepalive := flag.Duration("keepalive", 15*time.Second, "NDJSON event-stream keepalive interval")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown deadline for the HTTP server")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	storeBudget := flag.Int64("store-budget", 0, "result-store size budget in bytes; oldest artifacts evicted past it (0 = unlimited)")

	workerMode := flag.Bool("worker", false, "run as a pull-worker against -coord instead of serving")
	coordURL := flag.String("coord", "http://127.0.0.1:8077", "coordinator base URL (worker mode)")
	workerID := flag.String("worker-id", "", "worker identity (worker mode; default host-pid)")
	chaosKill := flag.Int("chaos-kill-after-steps", 0, "CHAOS TESTING: crash the process once the first job reaches this step")
	chaosDropHB := flag.Bool("chaos-drop-heartbeats", false, "CHAOS TESTING: silence heartbeats during the first job")
	chaosFailUploads := flag.Int("chaos-fail-uploads", 0, "CHAOS TESTING: fail the first N checkpoint-upload attempts")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workerMode {
		runWorker(ctx, *coordURL, *workerID, *heartbeat, coord.Chaos{
			KillAfterSteps: *chaosKill,
			DropHeartbeats: *chaosDropHB,
			FailUploads:    *chaosFailUploads,
		})
		return
	}

	s, err := newServerWith(serverOpts{
		dataDir:     *data,
		workers:     *pool,
		leaseTTL:    *leaseTTL,
		heartbeat:   *heartbeat,
		maxRetries:  *maxRetries,
		keepalive:   *keepalive,
		pprof:       *pprofOn,
		storeBudget: *storeBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Addr: *addr, Handler: s.handler()}
	go func() {
		<-ctx.Done()
		log.Printf("shutting down: draining HTTP within %s, checkpointing in-flight jobs", *shutdownTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close() // deadline passed: cut lingering event streams
		}
	}()
	log.Printf("serving on %s, data in %s", *addr, *data)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// Listener is down; drain the embedded workers (checkpoint + release)
	// so a restart resumes every job from its exact step position.
	s.close()
	log.Printf("shutdown complete")
}

// runWorker is worker mode: pull jobs from a remote coordinator until
// the process is signalled, then checkpoint, release, and exit.
func runWorker(ctx context.Context, coordURL, id string, heartbeat time.Duration, chaos coord.Chaos) {
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	log.SetPrefix("dsmcd-worker: ")
	log.Printf("worker %s pulling from %s", id, coordURL)
	w := coord.NewWorker(coord.WorkerConfig{
		ID:             id,
		Queue:          &coord.HTTPQueue{Base: coordURL},
		HeartbeatEvery: heartbeat,
		Chaos:          chaos,
		Logf:           log.Printf,
	})
	w.Run(ctx)
	log.Printf("worker %s drained", id)
}
