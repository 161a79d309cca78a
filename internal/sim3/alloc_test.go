package sim3

import (
	"testing"

	"dsmc/internal/kernel"
)

// testStepAllocationFree3D: the 3D backend's steady-state Step must also
// be allocation-free in either storage precision; the config crosses
// par's serial cutoff in both shard dimensions (2560 cells, ~20k
// particles) so the concurrent dispatch path is the one measured.
func testStepAllocationFree3D[F kernel.Float](t *testing.T) {
	t.Helper()
	cfg := detConfig()
	cfg.Workers = 4
	s, err := NewOf[F](cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if avg := testing.AllocsPerRun(20, s.Step); avg != 0 {
		t.Errorf("steady-state Step allocates %.2f times per call, want 0", avg)
	}
}

func TestStepAllocationFree3D(t *testing.T)        { testStepAllocationFree3D[float64](t) }
func TestStepAllocationFree3DFloat32(t *testing.T) { testStepAllocationFree3D[float32](t) }

// TestCellMajorInvariant3D: after a step the 3D store must be physically
// cell-major and each cell index consistent with the particle's position.
func TestCellMajorInvariant3D(t *testing.T) {
	cfg := tubeConfig()
	cfg.NX = 24
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		s.Step()
		st := s.Store()
		cellStart := s.CellStart()
		n := st.Len()
		if got := int(cellStart[len(cellStart)-1]); got != n {
			t.Fatalf("step %d: cellStart covers %d particles, store holds %d", step, got, n)
		}
		for i := 0; i < n; i++ {
			if i > 0 && st.Cell[i] < st.Cell[i-1] {
				t.Fatalf("step %d: Cell not non-decreasing at %d", step, i)
			}
			c := st.Cell[i]
			if i < int(cellStart[c]) || i >= int(cellStart[c+1]) {
				t.Fatalf("step %d: particle %d (cell %d) outside its span", step, i, c)
			}
			if want := int32(s.grid.CellOf(st.X[i], st.Y[i], st.Z[i])); c != want {
				t.Fatalf("step %d: particle %d carries cell %d, position says %d",
					step, i, c, want)
			}
		}
	}
}
