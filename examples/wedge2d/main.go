// Wedge2d reproduces the paper's central comparison (figures 1–6): the
// same Mach 4 / 30° wedge flow in the near-continuum limit (zero mean
// free path — every collision candidate collides) and in the rarefied
// regime (λ∞ = 0.5 cells, Kn = 0.02), showing the three signatures the
// paper reads off the density figures:
//
//   - the shock is thicker when rarefied (≈5 cells vs ≈3);
//   - the wake shock behind the wedge is washed out when rarefied;
//   - both solutions keep the 45° shock angle and 3.7 density rise.
package main

import (
	"fmt"
	"log"

	"dsmc"
)

func runCase(name string, lambda float64) *dsmc.Field {
	sc := dsmc.PaperConfig()
	sc.MeanFreePath = lambda
	sc.ParticlesPerCell = 8
	sc.Seed = 11

	s, err := dsmc.NewSimulation(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-15s running %d particles...\n", name, s.NFlow())
	s.Run(600)
	field := s.Sample(300).MustField(dsmc.Density)

	th := s.Theory()
	fmt.Printf("  shock angle    %5.1f°  (theory %.1f°)\n", field.ShockAngleDeg(), th.ShockAngleDeg)
	fmt.Printf("  density rise   %5.2f   (theory %.2f)\n", field.PostShockMean(), th.DensityRatio)
	fmt.Printf("  shock width    %5.1f cells\n", field.ShockThickness())
	fmt.Printf("  wake contrast  %5.2f\n", field.WakeContrast())
	return field
}

func main() {
	nc := runCase("near-continuum", 0)
	fmt.Println()
	rf := runCase("rarefied", 0.5)

	fmt.Println()
	fmt.Println("comparison (paper, figures 1 vs 4):")
	fmt.Printf("  shock width grows with rarefaction: %.1f -> %.1f cells (paper: 3 -> 5)\n",
		nc.ShockThickness(), rf.ShockThickness())
	fmt.Printf("  wake shock washes out:              %.2f -> %.2f contrast\n",
		nc.WakeContrast(), rf.WakeContrast())

	fmt.Println()
	fmt.Println("stagnation region, near-continuum (fig 3 view):")
	fmt.Print(nc.Window(30, 0, 50, 18).Surface(10))
	fmt.Println()
	fmt.Println("stagnation region, rarefied (fig 6 view):")
	fmt.Print(rf.Window(30, 0, 50, 18).Surface(10))
}
