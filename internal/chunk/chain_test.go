package chunk

import (
	"math"
	"testing"

	"whatifolap/internal/cube"
)

// chainFixture builds a 2-layer chain over a small chunked base:
//
//	base:    (0,0)=1 (0,1)=2 (1,0)=3
//	layer 1: (0,1)=20 (2,2)=99        — override + layer-only chunk cell
//	layer 2: (1,0) deleted, (0,0)=10  — tombstone + newer override
func chainFixture(t *testing.T) *Chain {
	t.Helper()
	g := MustGeometry([]int{4, 4}, []int{2, 2})
	st := NewStore(g)
	st.Set([]int{0, 0}, 1)
	st.Set([]int{0, 1}, 2)
	st.Set([]int{1, 0}, 3)
	l1 := NewLayer(g)
	l1.Set([]int{0, 1}, 20)
	l1.Set([]int{2, 2}, 99)
	l2 := NewLayer(g)
	l2.Delete([]int{1, 0})
	l2.Set([]int{0, 0}, 10)
	return NewChain(st, []*Layer{l1, l2})
}

func TestScenarioChainResolution(t *testing.T) {
	c := chainFixture(t)
	cases := []struct {
		addr []int
		want float64 // NaN = absent
	}{
		{[]int{0, 0}, 10},         // newest layer wins over base
		{[]int{0, 1}, 20},         // older layer wins over base
		{[]int{1, 0}, math.NaN()}, // tombstoned
		{[]int{2, 2}, 99},         // layer-only cell in a chunk the base never held
		{[]int{3, 3}, math.NaN()}, // untouched empty cell
	}
	for _, tc := range cases {
		got := c.Get(tc.addr)
		if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(tc.want) && got != tc.want) {
			t.Errorf("Get(%v) = %v, want %v", tc.addr, got, tc.want)
		}
	}
	if !c.EngineCapable() {
		t.Fatal("uniform chunk-backed chain should be engine capable")
	}
	if c.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d, want 2", c.NumLayers())
	}
	if c.CellsOverridden() != 4 {
		t.Fatalf("CellsOverridden = %d, want 4", c.CellsOverridden())
	}
}

func TestScenarioChainNonNullNewestWins(t *testing.T) {
	c := chainFixture(t)
	got := map[[2]int]float64{}
	c.NonNull(func(addr []int, v float64) bool {
		k := [2]int{addr[0], addr[1]}
		if _, dup := got[k]; dup {
			t.Fatalf("address %v emitted twice", addr)
		}
		got[k] = v
		return true
	})
	want := map[[2]int]float64{
		{0, 0}: 10, {0, 1}: 20, {2, 2}: 99,
	}
	if len(got) != len(want) {
		t.Fatalf("NonNull emitted %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("cell %v = %v, want %v", k, got[k], v)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

// TestScenarioChainWiderLayer covers the hypothetical-member shape: a
// layer on a wider geometry than the base. Cells above the base extent
// resolve from the layer; the chain is not engine capable.
func TestScenarioChainWiderLayer(t *testing.T) {
	g := MustGeometry([]int{2, 2}, []int{2, 2})
	st := NewStore(g)
	st.Set([]int{1, 1}, 7)
	wide := MustGeometry([]int{3, 2}, []int{2, 2})
	l := NewLayer(wide)
	l.Set([]int{2, 0}, 42) // ordinal above the base extent
	c := NewChain(st, []*Layer{l})
	if c.EngineCapable() {
		t.Fatal("wider layer must disable the engine fast path")
	}
	if got := c.Get([]int{2, 0}); got != 42 {
		t.Fatalf("Get above base extent = %v, want 42", got)
	}
	if got := c.Get([]int{1, 1}); got != 7 {
		t.Fatalf("base cell through wider chain = %v, want 7", got)
	}
	if got := c.Get([]int{2, 1}); !math.IsNaN(got) {
		t.Fatalf("untouched wide cell = %v, want NaN", got)
	}
}

// mergedCells expands ForEachMerged's runs over every chunk of the
// base and layer union into resolved cells, failing on a cell emitted
// twice.
func mergedCells(t *testing.T, c *Chain) map[[2]int]float64 {
	t.Helper()
	g := c.ChunkBase().Geometry()
	ids := map[int]bool{}
	for _, id := range c.ChunkBase().ChunkIDs() {
		ids[id] = true
	}
	for _, id := range c.LayerChunkIDs() {
		ids[id] = true
	}
	resolved := map[[2]int]float64{}
	ccoord := make([]int, 2)
	addr := make([]int, 2)
	for id := range ids {
		base, _ := c.ChunkBase().ReadChunkInfo(id)
		g.CoordOf(id, ccoord)
		c.ForEachMerged(id, base, func(start, runLen int, v float64) bool {
			if runLen < 1 {
				t.Fatalf("chunk %d: empty run at %d", id, start)
			}
			for off := start; off < start+runLen; off++ {
				g.Join(ccoord, off, addr)
				k := [2]int{addr[0], addr[1]}
				if _, dup := resolved[k]; dup {
					t.Fatalf("cell %v emitted twice", addr)
				}
				resolved[k] = v
			}
			return true
		})
	}
	return resolved
}

// TestScenarioChainForEachMerged pins the run iterator's resolution
// rules: expanding its runs over the union of base and layer chunks
// reproduces exactly the cells NonNull reports, each once — newest
// layer wins, tombstones skip, layer-only chunks are covered.
func TestScenarioChainForEachMerged(t *testing.T) {
	c := chainFixture(t)
	// A run-encoded base chunk no layer touches (runs cut by layer
	// cells are covered by TestScenarioChainOverRunEncodedBase).
	c.ChunkBase().Set([]int{0, 2}, 5)
	c.ChunkBase().Set([]int{0, 3}, 5)
	c.ChunkBase().ForceRunEncodeAll()
	resolved := mergedCells(t, c)
	want := map[[2]int]float64{}
	c.NonNull(func(a []int, v float64) bool {
		want[[2]int{a[0], a[1]}] = v
		return true
	})
	if len(resolved) != len(want) {
		t.Fatalf("merged iteration yielded %v, want %v", resolved, want)
	}
	for k, v := range want {
		if got, ok := resolved[k]; !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("cell %v = %v, want %v", k, got, v)
		}
	}

	// On the untouched chunk the iterator is the base's own run
	// iteration: one run covering both cells.
	id, _ := c.ChunkBase().Geometry().SplitID([]int{0, 2})
	base, _ := c.ChunkBase().ReadChunkInfo(id)
	var runs [][3]float64
	c.ForEachMerged(id, base, func(start, runLen int, v float64) bool {
		runs = append(runs, [3]float64{float64(start), float64(runLen), v})
		return true
	})
	if len(runs) != 1 || runs[0][1] != 2 || runs[0][2] != 5 {
		t.Fatalf("untouched chunk runs = %v, want one length-2 run of 5", runs)
	}
}

func TestScenarioChainReadOnly(t *testing.T) {
	c := chainFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a chain should panic")
		}
	}()
	c.Set([]int{0, 0}, 1)
}

func TestScenarioChainClone(t *testing.T) {
	c := chainFixture(t)
	cl := c.Clone()
	if cl.Len() != c.Len() {
		t.Fatalf("clone Len = %d, want %d", cl.Len(), c.Len())
	}
	c.NonNull(func(addr []int, v float64) bool {
		if got := cl.Get(addr); got != v {
			t.Errorf("clone cell %v = %v, want %v", addr, got, v)
		}
		return true
	})
}

// TestScenarioChainGetAllocs pins the acceptance criterion: layer-chain
// read resolution adds zero steady-state allocations per resolved cell,
// matching the overlay kernel standard.
func TestScenarioChainGetAllocs(t *testing.T) {
	c := chainFixture(t)
	addrs := [][]int{{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}}
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		for _, a := range addrs {
			sink += c.Get(a)
		}
	})
	if allocs != 0 {
		t.Fatalf("Chain.Get allocates %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestScenarioChainMergedAllocs pins the engine-facing merged run
// iteration at zero allocations per chunk once the callback is set up,
// on a chunk no layer touches (the base's own run iteration) and on a
// touched one (runs cut where layers own cells).
func TestScenarioChainMergedAllocs(t *testing.T) {
	c := chainFixture(t)
	c.ChunkBase().Set([]int{0, 2}, 5)
	untouched, _ := c.ChunkBase().Geometry().SplitID([]int{0, 2})
	var sink float64
	fn := func(off, runLen int, v float64) bool { sink += v * float64(runLen); return true }
	for _, id := range []int{0, untouched} {
		base, _ := c.ChunkBase().ReadChunkInfo(id)
		if base == nil {
			t.Fatalf("chunk %d has no base chunk", id)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			c.ForEachMerged(id, base, fn)
		})
		if allocs != 0 {
			t.Fatalf("ForEachMerged on chunk %d allocates %.1f per run, want 0", id, allocs)
		}
	}
	_ = sink
}

func TestScenarioChainMemStoreBase(t *testing.T) {
	ms := cube.NewMemStore(2)
	ms.Set([]int{0, 0}, 5)
	g := MustGeometry([]int{2, 2}, []int{2, 2})
	l := NewLayer(g)
	l.Set([]int{1, 1}, 6)
	c := NewChain(ms, []*Layer{l})
	if c.EngineCapable() {
		t.Fatal("MemStore base must not be engine capable")
	}
	if got := c.Get([]int{0, 0}); got != 5 {
		t.Fatalf("base cell = %v, want 5", got)
	}
	if got := c.Get([]int{1, 1}); got != 6 {
		t.Fatalf("layer cell = %v, want 6", got)
	}
}

// TestScenarioChainOverRunEncodedBase layers scenario edits over a
// run-encoded base: reads resolve newest-wins through the encoded
// chunks, ForEachMerged matches a plain-store twin cell for cell, and
// the base chunks stay run-encoded throughout — layer edits must never
// force a base decode (copy-on-write applies to writes, and scenario
// writes land in layers, not the base).
func TestScenarioChainOverRunEncodedBase(t *testing.T) {
	g := MustGeometry([]int{4, 4}, []int{2, 2})
	build := func() *Store {
		st := NewStore(g)
		for i := 0; i < 4; i++ { // one value run per row pair
			st.Set([]int{0, i}, 7)
			st.Set([]int{1, i}, 7)
			st.Set([]int{2, i}, 8)
		}
		return st
	}
	plain := build()
	rle := build()
	if n := rle.ForceRunEncodeAll(); n == 0 {
		t.Fatal("nothing run-encoded")
	}

	layer := NewLayer(g)
	layer.Set([]int{0, 1}, 70) // override inside a run
	layer.Delete([]int{2, 2})  // tombstone inside a run
	layer.Set([]int{3, 3}, 99) // layer-only cell in an empty base chunk
	plainChain := NewChain(plain, []*Layer{layer})
	rleChain := NewChain(rle, []*Layer{layer})

	addr := []int{0, 0}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			addr[0], addr[1] = x, y
			pw, gw := plainChain.Get(addr), rleChain.Get(addr)
			if math.IsNaN(pw) != math.IsNaN(gw) || (!math.IsNaN(pw) && pw != gw) {
				t.Fatalf("Get(%v): run-encoded chain %v, plain %v", addr, gw, pw)
			}
		}
	}

	for _, id := range []int{0, 1, 2, 3} {
		pb, _ := plainChain.ChunkBase().ReadChunkInfo(id)
		rb, _ := rleChain.ChunkBase().ReadChunkInfo(id)
		want := map[int]float64{}
		plainChain.ForEachMerged(id, pb, func(start, runLen int, v float64) bool {
			for off := start; off < start+runLen; off++ {
				want[off] = v
			}
			return true
		})
		got := map[int]float64{}
		rleChain.ForEachMerged(id, rb, func(start, runLen int, v float64) bool {
			for off := start; off < start+runLen; off++ {
				got[off] = v
			}
			return true
		})
		if len(want) != len(got) {
			t.Fatalf("chunk %d: merged %d cells, want %d", id, len(got), len(want))
		}
		for off, w := range want {
			if got[off] != w {
				t.Fatalf("chunk %d off %d: merged %v, want %v", id, off, got[off], w)
			}
		}
	}

	// The layer write and tombstone cut base runs; the pieces must
	// still cover exactly the resolved cells.
	resolved := mergedCells(t, rleChain)
	n := 0
	rleChain.NonNull(func(a []int, v float64) bool {
		n++
		if got, ok := resolved[[2]int{a[0], a[1]}]; !ok || got != v {
			t.Fatalf("cell %v: merged runs give %v (present %v), want %v", a, got, ok, v)
		}
		return true
	})
	if n != len(resolved) {
		t.Fatalf("merged runs cover %d cells, NonNull %d", len(resolved), n)
	}

	for _, id := range rle.ChunkIDs() {
		if c := rle.ReadChunk(id); c != nil && c.Rep() != RunEncoded {
			t.Fatalf("base chunk %d decoded to %v by chain reads", id, c.Rep())
		}
	}
}
