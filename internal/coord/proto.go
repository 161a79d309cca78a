// Package coord distributes a sweep's jobs across worker processes and
// survives their failure. It is the wire shell over the job core in
// internal/run — the one sweep executor, which in-process dsmc.RunSweep
// drives too — and adds the HTTP protocol, its client, the pull-Worker,
// the fleet table and the dsmc_coord_* telemetry. It sits above the
// public dsmc API: the coordinator enumerates jobs with dsmc.SweepJobs,
// pull-based workers execute them with dsmc.RunSweepJob, and the
// coordinator assembles the uploaded outputs with
// dsmc.AssembleSweepResult, so a distributed sweep shares every line of
// lowering, seeding, stepping, scheduling and aggregation code with the
// in-process path and its result is bit-identical to a single-process
// run.
//
// Protocol (modeled on dagu's coordinator protocol: workers poll for
// work, the coordinator dispatches leases, heartbeats carry liveness and
// step progress, a workers endpoint feeds status):
//
//	POST /coord/v1/poll        {"worker": id}        → 200 lease | 204 no work
//	POST /coord/v1/heartbeat   {worker, sweep, job, lease, steps_done, steps_total}
//	                                                 → {"status": "ok" | "abandon"}
//	GET  /coord/v1/checkpoint?sweep=&job=&lease=     → 200 bytes | 204 none
//	PUT  /coord/v1/checkpoint?sweep=&job=&lease=     → 204 (idempotent)
//	POST /coord/v1/complete?sweep=&job=&lease=       → 204 (idempotent; body: binary output)
//	POST /coord/v1/release?sweep=&job=&lease=        → 204 (graceful hand-back)
//	POST /coord/v1/fail?sweep=&job=&lease=           → 204 (body: {"error": msg})
//	GET  /coord/v1/workers                           → {"workers": [...]}
//
// Failure model: a lease that misses its heartbeats expires and the job
// is redispatched to the next polling worker, which resumes from the
// last uploaded checkpoint — because seeds and accumulators are
// deterministic, the retried job contributes the same bits as the
// never-failed run. A stale worker (its lease expired while it kept
// computing) gets 410 on every mutation, so redelivered uploads and
// completions are rejected idempotently and can never corrupt a
// redispatched job's state. A job that exhausts its dispatch budget is
// failed permanently: the core marks every unfinished job and point
// aggregation of its sweep skipped and the sweep reports the first
// error, as an in-process run does.
package coord

import (
	"encoding/json"

	"dsmc"
	"dsmc/internal/obs"
	"dsmc/internal/run"
	"dsmc/internal/store"
)

// Sentinel errors of the coordinator API: the job core's. The HTTP
// layer maps them to status codes and the client maps the codes back,
// so in-process and remote queues behave identically.
var (
	// ErrStaleLease rejects a mutation under a lease that is no longer
	// the job's current lease; the worker's answer is always to abandon
	// the job.
	ErrStaleLease = run.ErrStaleLease
	// ErrUnknown rejects references to sweeps or jobs the coordinator
	// does not track.
	ErrUnknown = run.ErrUnknown
)

// Lease is a dispatched job: the sweep spec to lower, the (point,
// replica) coordinates to run, and the lease the worker must present on
// every subsequent call. TTLMillis tells the worker how often it must
// heartbeat to keep the lease alive (heartbeat interval ≪ TTL).
type Lease struct {
	Sweep         string          `json:"sweep"`
	Job           string          `json:"job"`
	Point         int             `json:"point"`
	Replica       int             `json:"replica"`
	StepsTotal    int             `json:"steps_total"`
	LeaseID       string          `json:"lease_id"`
	TTLMillis     int64           `json:"ttl_ms"`
	HasCheckpoint bool            `json:"has_checkpoint"`
	Spec          json.RawMessage `json:"spec"`
}

// Heartbeat carries a worker's liveness and step progress for its
// current lease, plus two optional telemetry piggybacks: a compact
// snapshot of the worker's engine instruments (re-emitted by the
// coordinator's /metrics with a worker label) and the recent
// flight-recorder batch (fanned out as "trace" events). Both ride the
// heartbeat the worker already sends, so telemetry costs no extra
// round-trips and stops flowing exactly when liveness does.
type Heartbeat struct {
	Worker     string `json:"worker"`
	Sweep      string `json:"sweep"`
	Job        string `json:"job"`
	Lease      string `json:"lease"`
	StepsDone  int    `json:"steps_done"`
	StepsTotal int    `json:"steps_total"`

	Metrics []obs.Sample     `json:"metrics,omitempty"`
	Trace   []dsmc.StepTrace `json:"trace,omitempty"`
}

// Heartbeat responses.
const (
	// HBOK acknowledges the heartbeat and renews the lease.
	HBOK = "ok"
	// HBAbandon tells the worker its lease is gone (expired and possibly
	// redispatched): stop working on the job and poll for new work.
	HBAbandon = "abandon"
)

// WorkerStatus is one row of the workers endpoint: the operator's view
// of the fleet.
type WorkerStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"` // "running" | "idle" | "lost"
	Sweep      string `json:"sweep,omitempty"`
	Job        string `json:"job,omitempty"`
	StepsDone  int    `json:"steps_done,omitempty"`
	StepsTotal int    `json:"steps_total,omitempty"`
	// LastSeenMillis is the age of the last contact, in milliseconds.
	LastSeenMillis int64 `json:"last_seen_ms"`
}

// The binary replica-output codec (the DSMCOUT1 frame) lives in
// internal/store: the coordinator's upload format and the result
// store's at-rest artifact format are deliberately one frame, so a
// worker's completion body can be published to the store byte-for-byte.
// JSON cannot carry the outputs — ShockAngleDeg is NaN for scenarios
// without a wedge — and the sweep's bit-identity guarantee makes
// "almost the same float" a corruption, so outputs travel as raw
// IEEE-754 bits with a checksum trailer. The wrappers here convert at
// the public-type boundary.

// EncodeOutput serializes a replica output bit-exactly.
func EncodeOutput(o *dsmc.ReplicaOutput) []byte {
	return store.EncodeOutput((*store.Output)(o))
}

// DecodeOutput parses an encoded replica output, verifying the checksum
// before trusting any of it.
func DecodeOutput(data []byte) (*dsmc.ReplicaOutput, error) {
	o, err := store.DecodeOutput(data)
	return (*dsmc.ReplicaOutput)(o), err
}
