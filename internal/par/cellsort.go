package par

import (
	"dsmc/internal/kernel"
	"dsmc/internal/particle"
	"dsmc/internal/rng"
)

// directMaxCells is the largest cell count the scatter handles in one
// direct pass; above it the scatter is tiled into 256-cell blocks.
// The direct scatter keeps one destination line live per payload column
// per cell — about 10 × 64 B per cell. That is ~4 MiB for the paper
// wedge's 6,272 cells, which sits in the last-level cache, but ~105 MB
// for the 160×32×32 shock tube's 163,840 cells, the whole 105 MiB L3 of
// the 2-core benchmark host, so there nearly every scattered write
// misses. Bucketing by cell block first bounds the live set to one
// block's lines at the price of an extra int32 pass per element. The
// A/B on that host (dsmcbench, alternating pairs) has direct ahead on
// the wedge (0.0736 vs 0.0804 µs/particle/step) and tiled ahead on the
// tube (0.0914 vs 0.0941); any threshold between the two cell counts
// separates them.
const directMaxCells = 1 << 15

// sortBlockShift is log2 of the tiled scatter's cell-block width: 256
// cells, whose destination window (block × density × 9–10 payload
// columns) sits comfortably in L2 while the per-block pass overhead
// stays amortized. An 8192-cell block measured slower on the tube.
const sortBlockShift = 8

// CellSort is the sharded cell-major sort shared by the reference
// backends. It fuses the classic "sort then reorder" into one stable
// counting sort whose scatter pass moves the particle payload itself:
//
//  1. Plan: per-worker histograms over the pool's fixed element blocks
//     and a serial blocked merge that assigns every worker its scatter
//     base inside each cell;
//  2. ScatterStore: a stable sharded scatter that writes the payload (X,
//     Y, [Z], U, V, W, R1, R2, Evib, Cell) of a source particle.Store
//     directly into a shadow store at its cell-major position — no index
//     permutation is ever materialized, and after the caller swaps the
//     two buffers cell c's particles occupy the contiguous range
//     CellStart()[c]:CellStart()[c+1];
//  3. Shuffle: an in-place per-cell-span record shuffle drawing each
//     cell's permutation from its own counter-based stream.
//
// Grids above directMaxCells get a tiled scatter: each worker first
// buckets its element span by destination cell block (a single int32
// index write per element), then scatters one bounded block window at a
// time, so the active set of per-cell fill cursors and destination
// column lines stays cache-resident instead of streaming 9–10 scattered
// column writes across the whole domain.
//
// The resulting order is the serial counting sort's (ascending
// pre-scatter index within each cell) for any worker count on either
// scatter path — the invariant the deterministic collide phase relies
// on. All dispatch closures are built once at construction, so
// steady-state sorting performs zero heap allocations.
type CellSort[F kernel.Float] struct {
	pool      *Pool
	counts    []int32
	cellStart []int32
	wcounts   [][]int32
	wfill     [][]int32

	// Tiled-scatter state, nil on the direct path: elements are bucketed
	// by destination cell block (block = cell >> sortBlockShift) before
	// the payload moves, so the scatter revisits one bounded window of
	// cells at a time.
	nblocks int
	bidx    []int32   // block-bucketed source indices, capacity = store cap
	bstart  [][]int32 // per-worker per-block bucket bounds (nblocks+1)
	bfill   [][]int32 // per-worker per-block bucket cursors (nblocks)

	mergeBase []int32 // blocked-merge scratch: per-cell running scatter base

	// Prebuilt shard bodies (allocation-free dispatch) and the per-call
	// state they read. The fields are only live during the owning call.
	histFn    func(w, lo, hi int)
	scatterFn func(w, lo, hi int) // scatterShard or tiledScatterShard
	shuffleFn func(w, clo, chi int)
	cell      []int32
	cellOf    func(i int) int32
	src, dst  *particle.Store[F]
	swap      func(i, j int)
	seed      uint64
	epoch     uint64
}

// mergeBlock is the cell-block width of Plan's serial merge: the merge
// walks the per-worker histograms worker-major inside each block, so the
// live working set is W short rows of this many int32 counts (cache
// lines streamed in address order) instead of one strided column across
// all W histogram slices per cell.
const mergeBlock = 512

// NewCellSort returns a sorter over the given cell count, sharded on
// pool. It takes the direct scatter up to directMaxCells cells and the
// tiled one above. capacity is the maximum element count a Plan/Scatter
// pair will see (the particle store's capacity); the tiled scatter's
// bucket index is pre-sized to it so steady-state sorting never
// allocates.
func NewCellSort[F kernel.Float](pool *Pool, cells, capacity int) *CellSort[F] {
	cs := &CellSort[F]{
		pool:      pool,
		counts:    make([]int32, cells),
		cellStart: make([]int32, cells+1),
		wcounts:   make([][]int32, pool.Workers()),
		wfill:     make([][]int32, pool.Workers()),
		mergeBase: make([]int32, mergeBlock),
	}
	for w := range cs.wcounts {
		cs.wcounts[w] = make([]int32, cells)
		cs.wfill[w] = make([]int32, cells)
	}
	cs.histFn = cs.histShard
	cs.scatterFn = cs.scatterShard
	cs.shuffleFn = cs.shuffleShard
	if cells > directMaxCells {
		cs.nblocks = (cells + 1<<sortBlockShift - 1) >> sortBlockShift
		cs.bidx = make([]int32, capacity)
		cs.bstart = make([][]int32, pool.Workers())
		cs.bfill = make([][]int32, pool.Workers())
		for w := range cs.bstart {
			cs.bstart[w] = make([]int32, cs.nblocks+1)
			cs.bfill[w] = make([]int32, cs.nblocks)
		}
		cs.scatterFn = cs.tiledScatterShard
	}
	return cs
}

// Counts returns the per-cell element counts of the latest Plan.
func (cs *CellSort[F]) Counts() []int32 { return cs.counts }

// CellStart returns the bucket boundaries of the latest Plan: cell c's
// elements occupy [CellStart()[c], CellStart()[c+1]) after the scatter.
func (cs *CellSort[F]) CellStart() []int32 { return cs.cellStart }

// Plan computes cell[i] = cellOf(i) for every i in [0, n), the per-cell
// counts and bucket boundaries, and every worker's scatter base inside
// each cell. It must precede ScatterStore.
//
//dsmc:hotpath
func (cs *CellSort[F]) Plan(n int, cell []int32, cellOf func(i int) int32) {
	cs.cell, cs.cellOf = cell, cellOf
	cs.pool.ForIdx(n, cs.histFn)
	cs.cellOf = nil
	cs.merge()
}

// merge combines the per-worker histograms into the global counts and
// bucket boundaries and gives every worker its scatter base inside each
// cell: cell c holds worker 0's elements first, then worker 1's, … —
// exactly the stable order of the serial sort. The walk is blocked and
// worker-major: each pass streams a contiguous mergeBlock-cell row of
// one worker's histogram (sequential int32 reads/writes), rather than
// chasing all W histogram pointers per cell, so this serial per-step
// cost stays cache-friendly as the worker count grows.
//
//dsmc:hotpath
func (cs *CellSort[F]) merge() {
	cells := len(cs.counts)
	cs.cellStart[0] = 0
	for c0 := 0; c0 < cells; c0 += mergeBlock {
		c1 := c0 + mergeBlock
		if c1 > cells {
			c1 = cells
		}
		blk := cs.counts[c0:c1]
		for j := range blk {
			blk[j] = 0
		}
		for w := range cs.wcounts {
			cw := cs.wcounts[w][c0:c1]
			for j, v := range cw {
				blk[j] += v
			}
		}
		run := cs.cellStart[c0]
		base := cs.mergeBase[:len(blk)]
		for j, v := range blk {
			base[j] = run
			run += v
			cs.cellStart[c0+j+1] = base[j] + v
		}
		for w := range cs.wcounts {
			cw := cs.wcounts[w][c0:c1]
			fw := cs.wfill[w][c0:c1]
			for j, v := range cw {
				fw[j] = base[j]
				base[j] += v
			}
		}
	}
}

//dsmc:hotpath
func (cs *CellSort[F]) histShard(w, lo, hi int) {
	cw := cs.wcounts[w]
	for c := range cw {
		cw[c] = 0
	}
	cell, cellOf := cs.cell, cs.cellOf
	for i := lo; i < hi; i++ {
		c := cellOf(i)
		cell[i] = c
		cw[c]++
	}
}

// ScatterStore performs the stable sharded scatter of the latest Plan,
// writing src's payload into dst at cell-major positions and marking
// dst's first src.Len() slots live. The caller then swaps the two store
// pointers — sort and physical reorder fused into this single pass. src
// and dst must share Plan's cell slice (src.Cell) and have equal shape
// (both 2D or both 3D, dst.Cap() >= src.Len()).
//
// On a tiled grid each worker processes its element span in two
// sub-passes: bucket the span by destination block (one int32 write per
// element), then drain the buckets block by block so the destination
// column lines and fill cursors of one bounded window stay resident.
//
//dsmc:hotpath
func (cs *CellSort[F]) ScatterStore(src, dst *particle.Store[F]) {
	cs.src, cs.dst = src, dst
	if cs.bidx != nil && len(cs.bidx) < src.Len() {
		//dsmclint:allow hotpath-alloc amortized grow: the bucket index re-makes only if the store outgrows its construction capacity once, then is stable (AllocsPerRun pins the steady state)
		cs.bidx = make([]int32, src.Len()+src.Len()/4)
	}
	cs.pool.ForIdx(src.Len(), cs.scatterFn)
	cs.src, cs.dst = nil, nil
	dst.SetLen(src.Len())
}

// scatterShard is the direct one-pass scatter: the per-cell cursors and
// destination lines span the whole domain.
//
//dsmc:hotpath
func (cs *CellSort[F]) scatterShard(w, lo, hi int) {
	src, dst := cs.src, cs.dst
	fill := cs.wfill[w]
	cell := src.Cell
	threeD := src.Z != nil
	for i := lo; i < hi; i++ {
		c := cell[i]
		d := fill[c]
		fill[c] = d + 1
		dst.X[d] = src.X[i]
		dst.Y[d] = src.Y[i]
		if threeD {
			dst.Z[d] = src.Z[i]
		}
		dst.U[d] = src.U[i]
		dst.V[d] = src.V[i]
		dst.W[d] = src.W[i]
		dst.R1[d] = src.R1[i]
		dst.R2[d] = src.R2[i]
		dst.Evib[d] = src.Evib[i]
		dst.Cell[d] = c
	}
}

// bucketShard groups worker w's element span [lo, hi) by destination
// cell block: bstart[w] receives the block bounds inside bidx[lo:hi]
// (sized from the worker's own histogram) and each element's index is
// appended to its block's bucket in ascending order. The only payload
// traffic is one int32 per element; the bounded set of per-block
// cursors stays resident.
//
//dsmc:hotpath
func (cs *CellSort[F]) bucketShard(w, lo, hi int) {
	bs, bf := cs.bstart[w], cs.bfill[w]
	for b := range bf {
		bf[b] = 0
	}
	for c, v := range cs.wcounts[w] {
		bf[c>>sortBlockShift] += v
	}
	run := int32(lo)
	for b, v := range bf {
		bs[b] = run
		bf[b] = run
		run += v
	}
	bs[len(bf)] = run
	cell, bidx := cs.cell, cs.bidx
	for i := lo; i < hi; i++ {
		b := cell[i] >> sortBlockShift
		k := bf[b]
		bf[b] = k + 1
		bidx[k] = int32(i)
	}
}

// tiledScatterShard is one worker's tiled scatter: bucket the span, then
// drain it one cell-block window at a time. While a block drains, the
// live destination set is that block's cells only — fill cursors and the
// 9–10 destination column lines of a bounded cell window — instead of
// scattering across the whole domain.
//
//dsmc:hotpath
func (cs *CellSort[F]) tiledScatterShard(w, lo, hi int) {
	cs.bucketShard(w, lo, hi)
	src, dst := cs.src, cs.dst
	fill := cs.wfill[w]
	bs := cs.bstart[w]
	bidx := cs.bidx
	cell := src.Cell
	threeD := src.Z != nil
	for b := 0; b < cs.nblocks; b++ {
		for k := bs[b]; k < bs[b+1]; k++ {
			i := int(bidx[k])
			c := cell[i]
			d := fill[c]
			fill[c] = d + 1
			dst.X[d] = src.X[i]
			dst.Y[d] = src.Y[i]
			if threeD {
				dst.Z[d] = src.Z[i]
			}
			dst.U[d] = src.U[i]
			dst.V[d] = src.V[i]
			dst.W[d] = src.W[i]
			dst.R1[d] = src.R1[i]
			dst.R2[d] = src.R2[i]
			dst.Evib[d] = src.Evib[i]
			dst.Cell[d] = c
		}
	}
}

// Shuffle randomizes the record order within each cell span in place —
// collision candidates must change between time steps or the same
// partners collide repeatedly, leading to correlated velocity
// distributions — drawing each cell's permutation from its own
// counter-based stream (seed, epoch, cell), sharded over cell ranges.
// swap exchanges two records of the scattered payload (e.g. the bound
// store's Swap); it is only ever called with indices of one cell span.
//
//dsmc:hotpath
func (cs *CellSort[F]) Shuffle(seed, epoch uint64, swap func(i, j int)) {
	cs.seed, cs.epoch, cs.swap = seed, epoch, swap
	cs.pool.ForIdx(len(cs.counts), cs.shuffleFn)
	cs.swap = nil
}

//dsmc:hotpath
func (cs *CellSort[F]) shuffleShard(_, clo, chi int) {
	swap := cs.swap
	for c := clo; c < chi; c++ {
		lo := int(cs.cellStart[c])
		cnt := int(cs.cellStart[c+1]) - lo
		if cnt < 2 {
			continue
		}
		r := rng.StreamAt(cs.seed, cs.epoch, uint64(c))
		for i := cnt - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			swap(lo+i, lo+j)
		}
	}
}
