package sim

import (
	"testing"

	"dsmc/internal/kernel"
)

// allocConfig crosses par's serial cutoff in both shard dimensions so the
// zero-allocation guarantee is checked on the concurrent dispatch path,
// not just the serial fallback.
func allocConfig() Config {
	cfg := DefaultConfig(1)
	cfg.NPerCell = 2
	cfg.Seed = 17
	cfg.Workers = 4
	return cfg
}

// testStepAllocationFree: a steady-state Step must perform zero heap
// allocations in either storage precision — the sort scatters into the
// pre-allocated shadow store, all shard closures are prebuilt, per-worker
// scratch is pre-sized, and the reservoir is capacity-bounded.
func testStepAllocationFree[F kernel.Float](t *testing.T, workers int) {
	t.Helper()
	cfg := allocConfig()
	cfg.Workers = workers
	s, err := NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Past the initial transient: several plunger cycles, exit lists and
	// pick buffers at their steady sizes.
	s.Run(40)
	if avg := testing.AllocsPerRun(20, s.Step); avg != 0 {
		t.Errorf("steady-state Step allocates %.2f times per call, want 0", avg)
	}
}

func TestStepAllocationFree(t *testing.T)       { testStepAllocationFree[float64](t, 4) }
func TestStepAllocationFreeSerial(t *testing.T) { testStepAllocationFree[float64](t, 1) }

// The float32 instantiation runs the same engine, so the guarantee must
// carry over unchanged.
func TestStepAllocationFreeFloat32(t *testing.T)       { testStepAllocationFree[float32](t, 4) }
func TestStepAllocationFreeFloat32Serial(t *testing.T) { testStepAllocationFree[float32](t, 1) }

// TestCellMajorInvariant: after a step the store must be physically
// cell-major — Cell non-decreasing, spans matching CellStart, and every
// cell index consistent with the particle's position (the sort runs
// before collide, which changes only velocities).
func TestCellMajorInvariant(t *testing.T) {
	cfg := smallConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		s.Step()
		st := s.Store()
		cellStart := s.CellStart()
		n := st.Len()
		if got := int(cellStart[len(cellStart)-1]); got != n {
			t.Fatalf("step %d: cellStart covers %d particles, store holds %d", step, got, n)
		}
		for i := 0; i < n; i++ {
			if i > 0 && st.Cell[i] < st.Cell[i-1] {
				t.Fatalf("step %d: Cell not non-decreasing at %d: %d after %d",
					step, i, st.Cell[i], st.Cell[i-1])
			}
			c := st.Cell[i]
			if i < int(cellStart[c]) || i >= int(cellStart[c+1]) {
				t.Fatalf("step %d: particle %d (cell %d) outside span [%d, %d)",
					step, i, c, cellStart[c], cellStart[c+1])
			}
			if want := int32(s.grid.CellOf(st.X[i], st.Y[i])); c != want {
				t.Fatalf("step %d: particle %d carries cell %d, position says %d",
					step, i, c, want)
			}
		}
	}
}
