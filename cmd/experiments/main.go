// Command experiments regenerates every table and figure of the paper's
// evaluation at a configurable scale and writes the artefacts (density
// fields, series, breakdowns) to an output directory:
//
//	fig1   near-continuum density contours (shock angle 45°, ratio 3.7,
//	       thickness ≈ 3 cells)
//	fig2   near-continuum density surface (wake shock present)
//	fig3   near-continuum stagnation-region surface
//	fig4   rarefied density contours (λ∞ = 0.5, thickness ≈ 5 cells)
//	fig5   rarefied density surface (wake shock washed out)
//	fig6   rarefied stagnation-region surface
//	fig7   per-particle time vs total particles (fixed machine)
//	phases distribution of computational time over the four sub-steps
//	compare  CM backend vs sequential reference per-particle time
//	scaling  reference-backend worker sweep (1/2/4/N cores)
//
// Beyond the paper's evaluation, two orchestration experiments exercise
// the run subsystem (not part of "all"; run them explicitly):
//
//	sweep         ensemble sweep over the rarefaction parameter: -replicas
//	              independent replicas per point, scheduled by the job core
//	              over -jobpool concurrent simulations, aggregated into
//	              mean ± CI (writes sweep.json)
//	sweep-resume  self-verifying checkpoint/restore: runs the sweep,
//	              kills it mid-flight, resumes from the checkpoints, and
//	              fails unless the aggregates are bit-identical to the
//	              uninterrupted run
//	coord-chaos   self-verifying distributed fault tolerance: runs the
//	              sweep through the coordinator/pull-worker machinery
//	              (internal/coord), crashes one worker mid-job with the
//	              chaos harness, lets the survivors resume its lease from
//	              the last uploaded checkpoint, and fails unless the
//	              aggregates are bit-identical to the in-process run
//
// Run all paper experiments with defaults (a few minutes):
//
//	experiments -out results
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"dsmc"
	"dsmc/internal/cm"
	"dsmc/internal/cmsim"
	"dsmc/internal/coord"
	"dsmc/internal/par"
	"dsmc/internal/report"
	"dsmc/internal/sim"
)

type harness struct {
	perCell  float64
	steps    int
	avg      int
	procs    int
	workers  int
	seed     uint64
	outDir   string
	replicas int
	jobpool  int
	ckptDir  string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var h harness
	exp := flag.String("exp", "all", "experiment: all|fig1|fig2|fig3|fig4|fig5|fig6|fig7|phases|compare|scaling|sweep|sweep-resume|coord-chaos")
	flag.Float64Var(&h.perCell, "percell", 8, "particles per cell (75 = paper scale)")
	flag.IntVar(&h.steps, "steps", 600, "steps to steady state (paper: 1200)")
	flag.IntVar(&h.avg, "avg", 300, "averaging steps (paper: 2000)")
	flag.IntVar(&h.procs, "procs", 32768, "physical processors for the CM backend (paper: 32k)")
	flag.IntVar(&h.workers, "workers", 0, "reference-backend CPU workers (0 = NumCPU)")
	flag.Uint64Var(&h.seed, "seed", 1988, "random seed")
	flag.StringVar(&h.outDir, "out", "results", "output directory")
	flag.IntVar(&h.replicas, "replicas", 4, "replicas per sweep point (sweep experiments)")
	flag.IntVar(&h.jobpool, "jobpool", 0, "concurrent simulations of the sweep scheduler (0 = NumCPU)")
	flag.StringVar(&h.ckptDir, "ckpt", "", "sweep checkpoint directory: -exp sweep resumes over it when set (empty = no checkpoints); -exp sweep-resume defaults it to <out>/ckpt")
	flag.Parse()

	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	run := map[string]func() error{
		"fig1":         func() error { return h.contourFigs(0) },
		"fig4":         func() error { return h.contourFigs(0.5) },
		"fig7":         h.fig7,
		"phases":       h.phases,
		"compare":      h.compare,
		"scaling":      h.scaling,
		"sweep":        func() error { _, err := h.sweep(h.ckptDir); return err },
		"sweep-resume": h.sweepResume,
		"coord-chaos":  h.coordChaos,
	}
	// figs 2/3 and 5/6 are produced by the same runs as 1 and 4.
	run["fig2"], run["fig3"] = run["fig1"], run["fig1"]
	run["fig5"], run["fig6"] = run["fig4"], run["fig4"]

	if *exp == "all" {
		for _, name := range []string{"fig1", "fig4", "fig7", "phases", "compare", "scaling"} {
			fmt.Printf("=== %s ===\n", name)
			if err := run[name](); err != nil {
				log.Fatal(err)
			}
			fmt.Println()
		}
		return
	}
	f, ok := run[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err := f(); err != nil {
		log.Fatal(err)
	}
}

// contourFigs runs the wedge flow for one rarefaction setting and emits
// the contour figure, the surface figure and the stagnation window
// (figures 1–3 for λ=0, figures 4–6 for λ=0.5).
func (h *harness) contourFigs(lambda float64) error {
	tag := "nearcontinuum"
	if lambda > 0 {
		tag = "rarefied"
	}
	cfg := dsmc.PaperConfig()
	cfg.ParticlesPerCell = h.perCell
	cfg.MeanFreePath = lambda
	cfg.Seed = h.seed
	cfg.Workers = h.workers
	s, err := dsmc.NewSimulation(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d flow particles, %d steps + %d averaging\n",
		tag, s.NFlow(), h.steps, h.avg)
	s.Run(h.steps)
	// One sampling pass; density and temperature are both derived from it.
	smp := s.Sample(h.avg)
	field := smp.MustField(dsmc.Density)
	tempField := smp.MustField(dsmc.Temperature)
	th := s.Theory()

	t := report.NewTable("Mach 4 / 30° wedge, "+tag, "quantity", "measured", "paper/theory")
	t.AddRow("shock angle (deg)", field.ShockAngleDeg(), th.ShockAngleDeg)
	t.AddRow("post-shock density ratio", field.PostShockMean(), th.DensityRatio)
	t.AddRow("post-shock temperature ratio", tempField.PostShockMean(), th.TemperatureRatio)
	paperThick := 3.0
	if lambda > 0 {
		paperThick = 5.0
	}
	t.AddRow("shock thickness (cells)", field.ShockThickness(), paperThick)
	t.AddRow("wake contrast (lower wall)", field.WakeContrast(), "present vs washed out")
	t.AddRow("wake recovery x (cells)", field.WakeRecoveryX(), "moves downstream when rarefied")
	t.AddRow("wake steepness (1/cell)", field.WakeSteepness(), "falls when rarefied")
	t.AddRow("wake base density", field.WakeBaseDensity(), "drops sharply when rarefied")
	t.AddRow("freestream density", field.FreestreamMean(), 1.0)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	// Contour figure (fig 1 / fig 4): CSV field + contour segment counts.
	if err := h.writeField(tag+"_density", field); err != nil {
		return err
	}
	if err := h.writeField(tag+"_temperature", tempField); err != nil {
		return err
	}
	var levels []float64
	for l := 1.25; l < th.DensityRatio; l += 0.5 {
		levels = append(levels, l)
	}
	var b strings.Builder
	for _, l := range levels {
		fmt.Fprintf(&b, "level %.2f: %d segments\n", l, len(field.Contours(l)))
	}
	if err := os.WriteFile(filepath.Join(h.outDir, tag+"_contours.txt"), []byte(b.String()), 0o644); err != nil {
		return err
	}
	// Surface figure (fig 2 / fig 5).
	if err := os.WriteFile(filepath.Join(h.outDir, tag+"_surface.txt"),
		[]byte(field.Surface(10)), 0o644); err != nil {
		return err
	}
	// Stagnation-region zoom (fig 3 / fig 6).
	zoom := field.Window(30, 0, 50, 20)
	if err := h.writeField(tag+"_stagnation", zoom); err != nil {
		return err
	}
	return nil
}

func (h *harness) writeField(name string, f *dsmc.Field) error {
	csvF, err := os.Create(filepath.Join(h.outDir, name+".csv"))
	if err != nil {
		return err
	}
	defer csvF.Close()
	if err := f.WriteCSV(csvF); err != nil {
		return err
	}
	pgmF, err := os.Create(filepath.Join(h.outDir, name+".pgm"))
	if err != nil {
		return err
	}
	defer pgmF.Close()
	return f.WritePGM(pgmF)
}

// fig7 sweeps the total particle count at fixed machine size.
func (h *harness) fig7() error {
	base := sim.DefaultConfig(1)
	base.Seed = h.seed
	freeVol := float64(base.NX*base.NY) - base.Wedge.Base*base.Wedge.Height()/2
	startPerCell := float64(h.procs) / freeVol / 1.1
	steps := 20
	table := report.NewTable(
		fmt.Sprintf("Figure 7 — fixed machine of %d processors", h.procs),
		"particles", "vp-ratio", "model-us/p/step", "wall-us/p/step")
	var xs, ys []float64
	for k := 0; k < 5; k++ {
		cfg := base
		cfg.NPerCell = startPerCell * float64(int(1)<<uint(k))
		s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: h.procs})
		if err != nil {
			return err
		}
		s.Run(steps)
		book := s.Machine().Cost()
		n := float64(s.NFlow())
		modelUs := cm.ModelSeconds(book.TotalCycles()) * 1e6 / n / float64(steps)
		wallUs := book.TotalWall().Seconds() * 1e6 / n / float64(steps)
		table.AddRow(s.Machine().VPs(), s.Machine().VPR(), modelUs, wallUs)
		xs = append(xs, float64(s.Machine().VPs()))
		ys = append(ys, modelUs)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(h.outDir, "fig7.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Series(out, "Figure 7", "particles", "model-us/p/step", xs, ys)
}

// phases reports the distribution of computational time over the four
// sub-steps on the CM backend (paper: move 14%, sort 27%, select 20%,
// collide 39%).
func (h *harness) phases() error {
	cfg := sim.DefaultConfig(1)
	// The paper's breakdown is measured at full scale (VP ratio 16).
	cfg.NPerCell = 75
	cfg.Seed = h.seed
	s, err := cmsim.New(cmsim.Config{Sim: cfg, PhysProcs: h.procs})
	if err != nil {
		return err
	}
	s.Run(5)
	s.Machine().ResetCost()
	s.Run(30)
	book := s.Machine().Cost()
	parts := map[string]float64{}
	for _, name := range book.Phases() {
		if c := book.Phase(name).Cycles; c > 0 {
			parts[name] = float64(c)
		}
	}
	if err := report.Percentages(os.Stdout,
		"Distribution of computational time (CM cost model)", parts); err != nil {
		return err
	}
	fmt.Println("paper: collide 39%, sort 27%, select 20%, move+bc 14%")
	out, err := os.Create(filepath.Join(h.outDir, "phases.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Percentages(out, "phase cycle distribution", parts)
}

// compare measures per-particle wall time of the sequential reference
// (the Cray surrogate) against the CM backend's modelled and wall time.
func (h *harness) compare() error {
	steps := 60
	cfg := dsmc.PaperConfig()
	// The headline comparison is quoted at full paper scale: 512k
	// particles on the 32k-processor machine (VP ratio 16).
	cfg.ParticlesPerCell = 75
	cfg.Seed = h.seed
	// The reference plays the paper's single-processor Cray-2 role here,
	// so it is pinned to one worker regardless of -workers (the multicore
	// reference is the scaling experiment's subject).
	cfg.Workers = 1

	ref, err := dsmc.NewSimulation(cfg)
	if err != nil {
		return err
	}
	ref.Run(steps)
	refUs := ref.MicrosecondsPerParticleStep()

	cfg.Backend = dsmc.ConnectionMachine
	cfg.PhysProcs = h.procs
	cmS, err := dsmc.NewSimulation(cfg)
	if err != nil {
		return err
	}
	cmS.Run(steps)
	cmWallUs := cmS.MicrosecondsPerParticleStep()
	var cmModelUs float64
	var totalCycles int64
	for _, c := range cmS.ModelPhaseCycles() {
		totalCycles += c
	}
	cmModelUs = cm.ModelSeconds(totalCycles) * 1e6 / float64(cmS.NFlow()) / float64(steps)

	t := report.NewTable("Per-particle time comparison (µs/particle/step)",
		"implementation", "measured", "paper")
	t.AddRow("sequential reference (Cray-2 role)", refUs, 0.5)
	t.AddRow("CM backend, wall clock", cmWallUs, "-")
	t.AddRow(fmt.Sprintf("CM cost model (%d procs; paper 32k)", h.procs), cmModelUs, 7.2)
	t.AddRow("model/reference ratio", cmModelUs/math.Max(refUs, 1e-9), 7.2/0.5)
	return t.Render(os.Stdout)
}

// scaling sweeps the reference backend's worker count (1, 2, 4, all
// cores) on the wedge flow and reports wall-clock per-particle time and
// the speedup over one worker. Every run computes the identical
// trajectory (counter-based per-cell streams), so the sweep isolates the
// sharding from any statistical variation.
func (h *harness) scaling() error {
	steps := 40
	ws := par.SweepWorkers()
	table := report.NewTable(
		fmt.Sprintf("Reference backend multicore scaling (%g particles/cell, %d steps)", h.perCell, steps),
		"workers", "us/particle/step", "speedup")
	var base float64
	var xs, ys []float64
	for _, w := range ws {
		cfg := dsmc.PaperConfig()
		cfg.ParticlesPerCell = h.perCell
		cfg.Seed = h.seed
		cfg.Workers = w
		s, err := dsmc.NewSimulation(cfg)
		if err != nil {
			return err
		}
		s.Run(5) // warm-up past the initial transient
		t0 := time.Now()
		s.Run(steps)
		us := time.Since(t0).Seconds() * 1e6 / float64(s.NFlow()) / float64(steps)
		if w == 1 {
			base = us
		}
		table.AddRow(w, us, base/us)
		xs = append(xs, float64(w))
		ys = append(ys, us)
	}
	if err := table.Render(os.Stdout); err != nil {
		return err
	}
	out, err := os.Create(filepath.Join(h.outDir, "scaling.txt"))
	if err != nil {
		return err
	}
	defer out.Close()
	return report.Series(out, "Reference backend scaling", "workers", "us/particle/step", xs, ys)
}

// sweepSpec builds the rarefaction sweep: the paper's two flow regimes
// as sweep points, -replicas independent replicas each.
func (h *harness) sweepSpec(ckptDir string) dsmc.SweepSpec {
	base := dsmc.PaperConfig()
	base.ParticlesPerCell = h.perCell
	base.Seed = h.seed
	lam0, lam05 := 0.0, 0.5
	return dsmc.SweepSpec{
		Name:       "rarefaction-sweep",
		Base:       base,
		Quantities: []dsmc.Quantity{dsmc.Density, dsmc.Temperature, dsmc.MachNumber},
		Points: []dsmc.SweepPoint{
			{Name: "near-continuum", MeanFreePath: &lam0},
			{Name: "rarefied", MeanFreePath: &lam05},
		},
		Replicas:      h.replicas,
		WarmSteps:     h.steps,
		SampleSteps:   h.avg,
		Pool:          h.jobpool,
		CheckpointDir: ckptDir,
	}
}

// sweep runs the rarefaction ensemble sweep and reports per-point
// cross-replica statistics; checkpoints land in ckptDir when set.
func (h *harness) sweep(ckptDir string) (*dsmc.SweepResult, error) {
	spec := h.sweepSpec(ckptDir)
	fmt.Printf("sweep: %d points x %d replicas, %d+%d steps each, pool %d\n",
		len(spec.Points), spec.Replicas, spec.WarmSteps, spec.SampleSteps, h.jobpool)
	var jobsDone int
	res, err := dsmc.RunSweep(context.Background(), spec, func(e dsmc.SweepEvent) {
		// Count replica jobs only; the per-point aggregate fan-ins
		// also emit job-done but are not simulations.
		if e.Type == "job-done" && !strings.HasSuffix(e.Job, "/aggregate") {
			jobsDone++
			fmt.Printf("  %-32s done (%d of %d jobs finished)\n",
				e.Job, jobsDone, len(spec.Points)*spec.Replicas)
		}
	})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Rarefaction sweep, cross-replica aggregates",
		"point", "shock angle (deg)", "ci95", "replicas used", "freestream mean")
	for i := range res.Points {
		p := &res.Points[i]
		t.AddRow(p.Name,
			p.ShockAngleDeg.Mean, p.ShockAngleDeg.CI95, p.ShockAngleDeg.N,
			p.Field().FreestreamMean())
	}
	if err := t.Render(os.Stdout); err != nil {
		return nil, err
	}
	buf, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(h.outDir, "sweep.json"), append(buf, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepResume is the self-verifying kill/resume check: the sweep is run
// uninterrupted, then run again with checkpoints enabled but cancelled
// as soon as every job has committed at least one checkpoint, then
// resumed from those checkpoints. The resumed aggregates must match the
// uninterrupted run bit for bit.
func (h *harness) sweepResume() error {
	straight, err := h.sweep("")
	if err != nil {
		return err
	}

	ckptDir := h.ckptDir
	if ckptDir == "" {
		ckptDir = filepath.Join(h.outDir, "ckpt")
	}
	if err := os.RemoveAll(ckptDir); err != nil {
		return err
	}
	spec := h.sweepSpec(ckptDir)
	// Checkpoint at half a job's steps so cancellation always lands
	// mid-flight with state on disk.
	spec.CheckpointEvery = (spec.WarmSteps + spec.SampleSteps) / 2
	if spec.CheckpointEvery < 1 {
		spec.CheckpointEvery = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	checkpointed := make(map[string]bool)
	totalJobs := len(spec.Points) * spec.Replicas
	_, err = dsmc.RunSweep(ctx, spec, func(e dsmc.SweepEvent) {
		if e.Type == "job-progress" && e.StepsDone >= spec.CheckpointEvery {
			checkpointed[e.Job] = true
			if len(checkpointed) == totalJobs {
				cancel()
			}
		}
	})
	cancel()
	if err == nil {
		// The whole sweep finished before every job checkpointed (tiny
		// configurations); the resume below then just re-verifies the
		// completed checkpoints, which is still a valid check.
		fmt.Println("sweep-resume: sweep finished before cancellation; resuming over final checkpoints")
	} else {
		fmt.Printf("sweep-resume: killed mid-flight (%v); resuming from %s\n", err, ckptDir)
	}

	resumed, err := h.sweep(ckptDir)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if err := compareSweeps(straight, resumed); err != nil {
		return fmt.Errorf("sweep-resume FAILED: %w", err)
	}
	fmt.Println("sweep-resume: PASS — resumed aggregates are bit-identical to the uninterrupted run")
	return nil
}

// errChaosCrash is the sentinel thrown by the in-process chaos "crash":
// panicking through the worker's exit hook kills its goroutine the way
// os.Exit kills a worker process, without taking the experiment down.
var errChaosCrash = errors.New("chaos: injected worker crash")

// coordChaos is the self-verifying distributed fault-tolerance check:
// the sweep runs once in process (the reference), then again through the
// coordinator with pull-workers, where the first worker crashes hard mid
// job — after it has uploaded a checkpoint, with its heartbeats silenced
// so nothing keeps the lease alive. The coordinator expires the lease,
// redispatches, and a surviving worker resumes from the uploaded
// checkpoint. The final aggregates must match the reference bit for bit.
func (h *harness) coordChaos() error {
	straight, err := h.sweep("")
	if err != nil {
		return err
	}

	spec := h.sweepSpec("")
	spec.CheckpointEvery = (spec.WarmSteps + spec.SampleSteps) / 8
	if spec.CheckpointEvery < 1 {
		spec.CheckpointEvery = 1
	}

	dataDir := filepath.Join(h.outDir, "coord-data")
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	var lost atomic.Int32
	c := coord.New(coord.Config{
		DataDir:     dataDir,
		LeaseTTL:    5 * time.Second,
		MaxAttempts: 3,
		OnEvent: func(_ string, e dsmc.SweepEvent) {
			switch e.Type {
			case "job-lost":
				lost.Add(1)
				fmt.Printf("  coordinator: %s lost (%s)\n", e.Job, e.Err)
			case "job-failed", "job-skipped":
				fmt.Printf("  coordinator: %s %s (%s)\n", e.Job, e.Type, e.Err)
			}
		},
	})
	done := make(chan struct{})
	var chaosRes *dsmc.SweepResult
	var chaosErr error
	if err := c.AddSweep("coord-chaos", spec, func(r *dsmc.SweepResult, err error) {
		chaosRes, chaosErr = r, err
		close(done)
	}); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The crash worker runs alone first so it deterministically leases a
	// job; it dies one chunk after its first checkpoint upload.
	crashed := make(chan struct{})
	crash := coord.NewWorker(coord.WorkerConfig{
		ID:        "crash-worker",
		Queue:     coord.LocalQueue{C: c},
		PollEvery: 10 * time.Millisecond,
		Chaos: coord.Chaos{
			KillAfterSteps: spec.CheckpointEvery + 1,
			DropHeartbeats: true,
			Exit:           func(int) { panic(errChaosCrash) },
		},
	})
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if r != errChaosCrash {
					panic(r)
				}
				close(crashed)
			}
		}()
		crash.Run(ctx)
	}()
	select {
	case <-crashed:
		fmt.Println("coord-chaos: crash worker died mid-job; survivors take over")
	case <-time.After(10 * time.Minute):
		return fmt.Errorf("coord-chaos: crash worker never crashed")
	}

	for i := 0; i < 2; i++ {
		w := coord.NewWorker(coord.WorkerConfig{
			ID:        fmt.Sprintf("survivor-%d", i),
			Queue:     coord.LocalQueue{C: c},
			PollEvery: 10 * time.Millisecond,
		})
		go w.Run(ctx)
	}

	<-done
	if chaosErr != nil {
		return fmt.Errorf("coord-chaos sweep failed: %w", chaosErr)
	}
	if lost.Load() == 0 {
		return fmt.Errorf("coord-chaos FAILED: the crash was never detected as a lost lease")
	}
	if err := compareSweeps(straight, chaosRes); err != nil {
		return fmt.Errorf("coord-chaos FAILED: %w", err)
	}
	fmt.Println("coord-chaos: PASS — aggregates after a worker crash and lease-expiry resume are bit-identical to the in-process run")
	return nil
}

// compareSweeps demands bit-identical aggregates (NaN-safe): every
// scalar statistic including its sample counts, and the full per-cell
// stats of every sampled quantity.
func compareSweeps(a, b *dsmc.SweepResult) error {
	if len(a.Points) != len(b.Points) {
		return fmt.Errorf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	bits := math.Float64bits
	scalarsDiffer := func(x, y dsmc.ScalarStats) bool {
		return bits(x.Mean) != bits(y.Mean) || bits(x.Variance) != bits(y.Variance) ||
			bits(x.CI95) != bits(y.CI95) || x.N != y.N || x.Dropped != y.Dropped
	}
	for i := range a.Points {
		pa, pb := &a.Points[i], &b.Points[i]
		if pa.Name != pb.Name || pa.Replicas != pb.Replicas {
			return fmt.Errorf("point %d metadata differs", i)
		}
		if scalarsDiffer(pa.ShockAngleDeg, pb.ShockAngleDeg) {
			return fmt.Errorf("point %q shock-angle stats differ", pa.Name)
		}
		if scalarsDiffer(pa.Collisions, pb.Collisions) {
			return fmt.Errorf("point %q collision stats differ", pa.Name)
		}
		if scalarsDiffer(pa.NFlow, pb.NFlow) {
			return fmt.Errorf("point %q flow-count stats differ", pa.Name)
		}
		if len(pa.Fields) != len(pb.Fields) {
			return fmt.Errorf("point %q quantity sets differ", pa.Name)
		}
		for q, fa := range pa.Fields {
			fb, ok := pb.Fields[q]
			if !ok {
				return fmt.Errorf("point %q missing quantity %q in resumed run", pa.Name, q)
			}
			for c := range fa.Mean {
				if bits(fa.Mean[c]) != bits(fb.Mean[c]) ||
					bits(fa.Variance[c]) != bits(fb.Variance[c]) ||
					bits(fa.CI95[c]) != bits(fb.CI95[c]) {
					return fmt.Errorf("point %q %s stats differ at cell %d", pa.Name, q, c)
				}
			}
		}
	}
	return nil
}
