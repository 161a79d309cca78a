package par

import (
	"testing"

	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// fillStore populates n particles with distinct deterministic payloads
// and pseudo-random cell assignments over [0, cells).
func fillStore(st *particle.Store[float64], n, cells int, seed uint64) {
	st.SetLen(n)
	r := rng.NewStream(seed)
	for i := 0; i < n; i++ {
		st.X[i] = float64(i) + 0.25
		st.Y[i] = float64(i) + 0.5
		st.U[i] = r.Float64()
		st.V[i] = r.Float64()
		st.W[i] = r.Float64()
		st.R1[i] = r.Float64()
		st.R2[i] = r.Float64()
		st.Evib[i] = float64(i % 17)
		st.Cell[i] = int32(r.Intn(cells))
	}
}

// storesEqual reports whether the first n records of the two stores are
// bit-identical in every column.
func storesEqual(a, b *particle.Store[float64], n int) bool {
	cols := [][2][]float64{
		{a.X, b.X}, {a.Y, b.Y}, {a.U, b.U}, {a.V, b.V}, {a.W, b.W},
		{a.R1, b.R1}, {a.R2, b.R2}, {a.Evib, b.Evib},
	}
	for _, c := range cols {
		for i := 0; i < n; i++ {
			if c[0][i] != c[1][i] {
				return false
			}
		}
	}
	for i := 0; i < n; i++ {
		if a.Cell[i] != b.Cell[i] {
			return false
		}
	}
	return true
}

// stableOracle computes the serial stable counting sort the scatter must
// reproduce: cell-major, ascending pre-sort index within each cell.
func stableOracle(src *particle.Store[float64], n, cells int) *particle.Store[float64] {
	counts := make([]int32, cells+1)
	for i := 0; i < n; i++ {
		counts[src.Cell[i]+1]++
	}
	for c := 0; c < cells; c++ {
		counts[c+1] += counts[c]
	}
	dst := particle.NewStore[float64](src.Cap())
	dst.SetLen(n)
	for i := 0; i < n; i++ {
		c := src.Cell[i]
		d := counts[c]
		counts[c] = d + 1
		dst.X[d], dst.Y[d] = src.X[i], src.Y[i]
		dst.U[d], dst.V[d], dst.W[d] = src.U[i], src.V[i], src.W[i]
		dst.R1[d], dst.R2[d], dst.Evib[d] = src.R1[i], src.R2[i], src.Evib[i]
		dst.Cell[d] = c
	}
	return dst
}

// TestScatterMatchesStableOracle: both scatter paths reproduce the
// serial stable counting sort exactly, at one and four workers. The
// tiled grid lies above directMaxCells and its cell count leaves a
// partial last block; the small element counts leave the last worker's
// source span empty at four workers.
func TestScatterMatchesStableOracle(t *testing.T) {
	cases := []struct {
		name  string
		cells int
		n     int
		tiled bool
	}{
		{"direct", 300, 5000, false},
		{"direct/empty-span", 300, 9, false},
		{"tiled", directMaxCells + 100, 90000, true},
		{"tiled/empty-span", directMaxCells + 100, 9, true},
	}
	for _, tc := range cases {
		src := particle.NewStore[float64](tc.n)
		fillStore(src, tc.n, tc.cells, 42)
		want := stableOracle(src, tc.n, tc.cells)
		cellOf := func(i int) int32 { return src.Cell[i] }
		for _, workers := range []int{1, 4} {
			cs := NewCellSort[float64](New(workers), tc.cells, tc.n)
			if got := cs.bidx != nil; got != tc.tiled {
				t.Fatalf("%s: tiled scatter = %v, want %v", tc.name, got, tc.tiled)
			}
			cs.Plan(tc.n, src.Cell, cellOf)
			dst := particle.NewStore[float64](tc.n)
			cs.ScatterStore(src, dst)
			if !storesEqual(want, dst, tc.n) {
				t.Errorf("%s workers=%d: ScatterStore diverges from the stable oracle", tc.name, workers)
			}
		}
	}
}

// TestSortAllocationFree: a steady-state Plan/ScatterStore/Shuffle round
// allocates nothing on either scatter path. The engine's Step tests run
// grids below directMaxCells, so this pins the tiled path's bucket
// buffers directly.
func TestSortAllocationFree(t *testing.T) {
	for _, cells := range []int{300, directMaxCells + 100} {
		const n = 50000
		src := particle.NewStore[float64](n)
		fillStore(src, n, cells, 3)
		dst := particle.NewStore[float64](n)
		cs := NewCellSort[float64](New(4), cells, n)
		cellOf := func(i int) int32 { return src.Cell[i] }
		swap := func(i, j int) { dst.Swap(i, j) }
		round := func() {
			cs.Plan(n, src.Cell, cellOf)
			cs.ScatterStore(src, dst)
			cs.Shuffle(1, 2, swap)
		}
		round()
		if avg := testing.AllocsPerRun(10, round); avg != 0 {
			t.Errorf("cells=%d: sort round allocates %.2f times per call, want 0", cells, avg)
		}
	}
}
