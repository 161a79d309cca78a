package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"dsmc"
	"dsmc/internal/obs"
)

// smallWedge is the base scenario of the ensemble workload's sweeps: the
// paper's wedge on a half-size grid at about 8 particles per cell, one
// worker per simulation so that parallelism comes from the sweep pool.
func smallWedge(seed uint64, perCell float64) dsmc.WedgeTunnel2D {
	return dsmc.WedgeTunnel2D{
		GridNX: 49, GridNY: 32,
		Wedge: dsmc.WedgeSpec{LeadX: 10, Base: 25, AngleDeg: 30},
		Mach:  4, ThermalSpeed: 0.125, MeanFreePath: 0.5,
		ParticlesPerCell: perCell, Workers: 1, Seed: seed,
	}
}

// jobTimes are the arrival times of one job's events.
type jobTimes struct {
	started, done time.Time
	memo          bool // its first progress event already reported every step done
	replica       bool // a replica job (it reports progress), not an aggregate
}

// sweepEvents timestamps the events of one sweep as they arrive.
type sweepEvents struct {
	call, firstStart time.Time
	jobs             map[string]*jobTimes
	fieldAt          map[string]time.Time // aggregate-done arrival by point name
}

func newSweepEvents(call time.Time) *sweepEvents {
	return &sweepEvents{call: call, jobs: map[string]*jobTimes{}, fieldAt: map[string]time.Time{}}
}

// fieldTime is the time from the sweep's call to the arrival of a
// point's aggregate.
func (w *sweepEvents) fieldTime(point string) float64 {
	return w.fieldAt[point].Sub(w.call).Seconds()
}

// observe records one event at its arrival time.
func (w *sweepEvents) observe(ev dsmc.SweepEvent, at time.Time) {
	if ev.Job == "" {
		return
	}
	j := w.jobs[ev.Job]
	if j == nil {
		j = &jobTimes{}
		w.jobs[ev.Job] = j
	}
	switch ev.Type {
	case "job-started":
		if j.started.IsZero() {
			j.started = at
		}
		if w.firstStart.IsZero() {
			w.firstStart = at
		}
	case "job-progress":
		if !j.replica {
			j.replica = true
			j.memo = ev.StepsTotal > 0 && ev.StepsDone == ev.StepsTotal
		}
	case "aggregate-done":
		w.fieldAt[ev.Scenario] = at
	case "job-done":
		j.done = at
	}
}

func runEnsemble(ctx context.Context, e *env) error {
	n, perCell, warm, sample := scaled(e.cfg, 1, 6), 8.0, 150, 50
	if e.cfg.tiny {
		n, perCell, warm, sample = 3, 1, 4, 2
	}
	base := smallWedge(derive(e.cfg.seed, 3), perCell)
	plans := genSweeps(derive(e.cfg.seed, 4), n,
		func(j int) int { return 2 + j%2 }, func(j int) int { return 2 + j%3 }, 0)
	storeDir := filepath.Join(e.dir, "store")
	counters0 := scrapeDefault()

	var walls, lats, setups, fields, queue, jobDur, aggDur []float64
	var busy, computedSteps float64
	jobs, reused, hits := 0, 0, 0
	seen := map[pointKey][]byte{}
	same, compared := 0, 0
	var first *dsmc.SweepResult
	for j, p := range plans {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec, err := p.spec(base, warm, sample)
		if err != nil {
			return err
		}
		spec.Pool = numWorkers
		spec.CheckpointDir = filepath.Join(e.dir, "ckpt", p.name)
		spec.ResultStoreDir = storeDir
		sp := e.tr.beginIn("run.sweep", 1, p.name)
		w, res, err := runSweep(ctx, spec)
		end := time.Now()
		e.tr.finish(sp)
		e.ops(1, boolInt(err != nil))
		if err != nil {
			return fmt.Errorf("sweep %s: %w", p.name, err)
		}
		if j == 0 {
			first = res
		}
		wall := end.Sub(w.call).Seconds()
		walls, lats = append(walls, wall), append(lats, wall)
		setups = append(setups, w.firstStart.Sub(w.call).Seconds())
		jobs += p.jobs()
		reused += p.reused
		steps := float64(warm + sample)
		for id, jt := range w.jobs {
			d := jt.done.Sub(jt.started).Seconds()
			busy += d
			switch {
			case !jt.replica:
				aggDur = append(aggDur, d*1e3)
				e.tr.record("run.aggregate", sp, "", jt.started, jt.done)
			case jt.memo:
				hits++
				queue = append(queue, jt.started.Sub(w.call).Seconds())
				e.tr.record("store.hit", sp, "", jt.started, jt.done)
			default:
				queue = append(queue, jt.started.Sub(w.call).Seconds())
				jobDur = append(jobDur, d)
				e.tr.record("run.job", sp, "", jt.started, jt.done)
				if pt := pointOf(res, id); pt != nil {
					computedSteps += pt.NFlow.Mean * steps
				}
			}
		}
		for i, v := range p.points {
			key := pointKey{i, v, p.replicas}
			enc := encodePoint(res.Points[i])
			if prev, ok := seen[key]; ok {
				compared++
				same += boolInt(bytes.Equal(prev, enc))
			} else {
				seen[key] = enc
				fields = append(fields, w.fieldTime(pointName(i, v)))
			}
		}
	}
	e.check("ensemble_shared_points_identical", same == compared,
		"%d of %d point aggregates shared with an earlier sweep are byte-identical to it", same, compared)
	e.check("ensemble_memo_hits", hits == reused,
		"%d replica jobs served from the store, %d reused by construction", hits, reused)

	// Re-run the first sweep against the populated store: every replica
	// must come from the store and the aggregate must not change a bit.
	spec, err := plans[0].spec(base, warm, sample)
	if err != nil {
		return err
	}
	spec.Pool, spec.ResultStoreDir = numWorkers, storeDir
	spec.CheckpointDir = filepath.Join(e.dir, "ckpt", "rerun")
	sp := e.tr.beginIn("run.sweep", 1, "rerun")
	w, again, err := runSweep(ctx, spec)
	e.tr.finish(sp)
	e.ops(1, boolInt(err != nil))
	if err != nil {
		return fmt.Errorf("re-running %s: %w", plans[0].name, err)
	}
	memo := 0
	for _, jt := range w.jobs {
		memo += boolInt(jt.memo)
	}
	sp = e.tr.begin("check.identity", 1)
	identical := len(again.Points) == len(first.Points)
	for i := range first.Points {
		identical = identical && i < len(again.Points) && bytes.Equal(encodePoint(first.Points[i]), encodePoint(again.Points[i]))
	}
	e.tr.finish(sp)
	e.check("ensemble_memo_rerun_identical", identical && memo == plans[0].jobs(),
		"re-run of %s: %d of %d replicas from the store, aggregate byte-identical: %v", plans[0].name, memo, plans[0].jobs(), identical)

	total := sum(walls)
	e.e2e["us_per_particle_step"] = total * 1e6 / computedSteps
	e.e2e["time_to_field_s"] = median(fields)
	e.e2e["jobs_per_min"] = 60 * float64(jobs) / total
	e.e2e["submit_to_result_p50_s"] = quantile(lats, 0.5)
	e.e2e["submit_to_result_p90_s"] = quantile(lats, 0.9)
	e.e2e["setup_s"] = median(setups)
	e.info["setup_samples_s"] = setups
	e.info["sweeps"] = len(plans)
	e.info["replica_jobs"] = jobs
	e.info["replica_jobs_reused"] = reused
	e.info["latency_samples"] = len(lats)

	counters1 := scrapeDefault()
	delta := func(k string) float64 { return counters1[k] - counters0[k] }
	if looks := delta("dsmc_store_hits_total") + delta("dsmc_store_misses_total"); looks > 0 {
		e.layer["store.hit_frac"] = delta("dsmc_store_hits_total") / looks
	}
	e.layer["store.publishes"] = delta("dsmc_store_publishes_total")
	e.layer["store.bytes"] = float64(dirBytes(filepath.Join(storeDir, "objects")))
	e.layer["run.queue_wait_s_p50"] = median(queue)
	e.layer["run.job_s_p50"] = median(jobDur)
	e.layer["run.aggregate_ms_p50"] = median(aggDur)
	e.layer["run.pool_busy_frac"] = busy / (numWorkers * total)
	return nil
}

// runSweep runs one sweep in process and timestamps its events.
func runSweep(ctx context.Context, spec dsmc.SweepSpec) (*sweepEvents, *dsmc.SweepResult, error) {
	w := newSweepEvents(time.Now())
	res, err := dsmc.RunSweep(ctx, spec, func(ev dsmc.SweepEvent) { w.observe(ev, time.Now()) })
	return w, res, err
}

// pointOf finds the point a replica job belongs to: a job ID is the
// point's name, a slash and the replica.
func pointOf(res *dsmc.SweepResult, job string) *dsmc.PointResult {
	for i := range res.Points {
		if strings.HasPrefix(job, res.Points[i].Name+"/") {
			return &res.Points[i]
		}
	}
	return nil
}

// scrapeDefault reads the process's own metrics registry: the counter
// families the result store and the engine already keep.
func scrapeDefault() map[string]float64 {
	var b bytes.Buffer
	if err := obs.Default.WriteText(&b); err != nil {
		return map[string]float64{}
	}
	m, err := obs.ParseText(&b)
	if err != nil {
		return map[string]float64{}
	}
	return m
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
