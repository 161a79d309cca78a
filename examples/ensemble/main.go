// Ensemble quickstart: DSMC answers are statistical, so production runs
// replicate them. This example runs several independent replicas of the
// paper's rarefied wedge flow as a sweep of jobs over a bounded pool of
// concurrent simulations (dsmc.RunEnsemble), then reports the shock
// angle as mean ± 95% CI instead of a single-sample point estimate —
// with the mean density field still carrying the full analysis surface.
//
// The same spec can be submitted to the dsmcd job server (POST
// /v1/sweeps) or widened into a parameter sweep with dsmc.RunSweep; see
// the README's run-orchestration section.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dsmc"
)

func main() {
	cfg := dsmc.PaperConfig()
	cfg.ParticlesPerCell = 4 // laptop scale; the paper's run uses 75
	cfg.Seed = 2026          // base seed: every replica derives its own

	const (
		replicas    = 4
		warmSteps   = 300
		sampleSteps = 200
	)
	fmt.Printf("running %d replicas (%d+%d steps each) over the job pool...\n",
		replicas, warmSteps, sampleSteps)
	t0 := time.Now()
	res, err := dsmc.RunEnsemble(context.Background(), cfg, replicas, warmSteps, sampleSteps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %s\n\n", time.Since(t0).Round(time.Millisecond))

	fmt.Printf("shock angle:  %5.1f° ± %.1f° (95%% CI over %d replicas; theory 45°)\n",
		res.ShockAngleDeg.Mean, res.ShockAngleDeg.CI95, res.ShockAngleDeg.N)
	fmt.Printf("flow size:    %.0f ± %.0f particles\n",
		res.NFlow.Mean, res.NFlow.CI95)
	fmt.Printf("collisions:   %.3g ± %.2g per replica\n",
		res.Collisions.Mean, res.Collisions.CI95)

	field := res.Field() // cross-replica mean density
	fmt.Printf("freestream:   %5.3f (want 1.000)\n\n", field.FreestreamMean())
	fmt.Println("mean density field (flow left to right, wedge at the bottom):")
	fmt.Print(field.ASCII())
}
