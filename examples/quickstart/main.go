// Quickstart: run the paper's Mach 4 / 30° wedge experiment at laptop
// scale through the scenario API and check the validation numbers the
// paper quotes — a 45° shock and a 3.7 Rankine–Hugoniot density rise —
// plus the temperature rise, all derived from one sampling pass.
package main

import (
	"fmt"
	"log"

	"dsmc"
)

func main() {
	sc := dsmc.PaperConfig()
	sc.ParticlesPerCell = 8 // the paper's 512k-particle run uses 75
	sc.Seed = 2024

	s, err := dsmc.NewSimulation(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulating %d particles in the flow (+%d in the reservoir)\n",
		s.NFlow(), s.NReservoir())

	s.Run(600) // reach steady state (the paper runs 1200)

	// One sampling pass accumulates every moment; each quantity is then
	// derived without re-running the simulation.
	smp := s.Sample(300)
	density := smp.MustField(dsmc.Density)
	temp := smp.MustField(dsmc.Temperature)
	mach := smp.MustField(dsmc.MachNumber)

	th := s.Theory()
	fmt.Printf("shock angle:       %5.1f° measured, %5.1f° theory\n",
		density.ShockAngleDeg(), th.ShockAngleDeg)
	fmt.Printf("density rise:      %5.2f  measured, %5.2f  theory\n",
		density.PostShockMean(), th.DensityRatio)
	fmt.Printf("temperature rise:  %5.2f  measured, %5.2f  theory\n",
		temp.PostShockMean(), th.TemperatureRatio)
	fmt.Printf("freestream:        %5.3f measured, 1.000 expected\n",
		density.FreestreamMean())
	fmt.Printf("freestream Mach:   %5.2f measured, %5.2f configured\n",
		mach.RegionMean(2, 2, 16, 22), sc.Mach)
	fmt.Printf("collisions:        %d over %d steps\n", s.Collisions(), s.StepCount())
	fmt.Println()
	fmt.Println("density field (flow left to right, wedge at the bottom):")
	fmt.Print(density.ASCII())
}
