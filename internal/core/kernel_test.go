package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"whatifolap/internal/algebra"
	"whatifolap/internal/chunk"
	"whatifolap/internal/cube"
	"whatifolap/internal/dimension"
	"whatifolap/internal/paperdata"
	"whatifolap/internal/perspective"
	"whatifolap/internal/trace"
	"whatifolap/internal/workload"
)

// legacyOverlay is the reference relocation kernel: the string-keyed
// cube.MemStore scan the chunk-native kernel replaced, relocating cell
// by cell. It reads the plan's schedule and applies the same relocation
// tables, so any divergence from the chunk-native overlays is a kernel
// bug, not a planning difference. On an engine over a scenario chain,
// each scheduled chunk resolves cell by cell through legacyMerged over
// the chain's layers (oldest first), which the caller passes in.
func legacyOverlay(e *Engine, p *PhysicalPlan, layers ...*chunk.Layer) *cube.MemStore {
	ms := cube.NewMemStore(e.base.NumDims())
	g := e.store.Geometry()
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	out := make([]int, g.NumDims())
	relocate := func(addr []int, v float64) {
		row := p.Target[addr[e.vi]]
		if row == nil {
			return
		}
		dst := row[addr[e.pi]]
		if dst < 0 {
			return
		}
		copy(out, addr)
		out[e.vi] = dst
		ms.Set(out, v)
	}
	for _, id := range p.Schedule {
		ch := e.store.ReadChunk(id)
		g.CoordOf(id, ccoord)
		if e.chain != nil {
			legacyMerged(g, layers, id, ch, relocate)
			continue
		}
		if ch == nil {
			continue
		}
		ch.ForEach(func(off int, v float64) bool {
			g.Join(ccoord, off, addr)
			relocate(addr, v)
			return true
		})
	}
	return ms
}

// legacyMerged is the per-cell scenario resolution the chain's run
// iteration replaced: base cells first, each resolved newest layer
// first (a tombstone skips the cell, a write replaces its value), then
// layer writes at cells of chunk id the base does not hold and no newer
// layer writes or tombstones. base may be nil (a layer-only chunk).
func legacyMerged(g *chunk.Geometry, layers []*chunk.Layer, id int, base *chunk.Chunk, fn func(addr []int, v float64)) {
	ccoord := make([]int, g.NumDims())
	addr := make([]int, g.NumDims())
	g.CoordOf(id, ccoord)
	if base != nil {
		base.ForEach(func(off int, v float64) bool {
			g.Join(ccoord, off, addr)
			for i := len(layers) - 1; i >= 0; i-- {
				if !math.IsNaN(layers[i].Deletes().Get(addr)) {
					return true
				}
				if lv := layers[i].Values().Get(addr); !math.IsNaN(lv) {
					fn(addr, lv)
					return true
				}
			}
			fn(addr, v)
			return true
		})
	}
	for i := len(layers) - 1; i >= 0; i-- {
		layers[i].Values().NonNull(func(a []int, v float64) bool {
			cid, off := g.SplitID(a)
			if cid != id || (base != nil && !math.IsNaN(base.Get(off))) {
				return true
			}
			for j := len(layers) - 1; j > i; j-- {
				if !math.IsNaN(layers[j].Deletes().Get(a)) || !math.IsNaN(layers[j].Values().Get(a)) {
					return true
				}
			}
			fn(a, v)
			return true
		})
	}
}

// dumpStore materializes any cube.Store for exact comparison.
func dumpStore(s cube.Store) map[string]float64 {
	m := make(map[string]float64)
	s.NonNull(func(addr []int, v float64) bool {
		m[fmt.Sprint(addr)] = v
		return true
	})
	return m
}

// overlayOf extracts the relocated-cell overlay from a view.
func overlayOf(t *testing.T, v *View) cube.Store {
	t.Helper()
	vs, ok := v.Result().Store().(*viewStore)
	if !ok {
		t.Fatalf("view store is %T, want *viewStore", v.Result().Store())
	}
	return vs.overlay
}

// TestKernelMatchesLegacyMemStorePaper pins the tentpole invariant on
// the paper's warehouse: at every semantics × mode, the chunk-native
// overlay (serial) and the partitioned per-group overlays (parallel)
// hold exactly the cells the legacy MemStore kernel produces.
func TestKernelMatchesLegacyMemStorePaper(t *testing.T) {
	e := newEngine(t)
	for _, sem := range allSemantics {
		for _, mode := range []perspective.Mode{perspective.NonVisual, perspective.Visual} {
			q := PerspectiveQuery{
				Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
				Sem: sem, Mode: mode,
			}
			plan, err := e.PlanPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v plan: %v", sem, mode, err)
			}
			want := dumpStore(legacyOverlay(e, plan))

			serial, err := e.ExecPerspective(q)
			if err != nil {
				t.Fatalf("%v/%v serial: %v", sem, mode, err)
			}
			sov := overlayOf(t, serial)
			if _, ok := sov.(*chunk.Overlay); !ok {
				t.Fatalf("serial overlay is %T, want *chunk.Overlay", sov)
			}
			if got := dumpStore(sov); !sameCells(want, got) {
				t.Fatalf("%v/%v: serial chunk-native overlay differs from legacy kernel (%d vs %d cells)",
					sem, mode, len(got), len(want))
			}

			par, err := e.ExecPerspectiveWith(ExecContext{Workers: 4}, q)
			if err != nil {
				t.Fatalf("%v/%v parallel: %v", sem, mode, err)
			}
			pov := overlayOf(t, par)
			if par.Stats.ScanWorkers > 1 {
				if _, ok := pov.(*chunk.PartitionedOverlay); !ok {
					t.Fatalf("parallel overlay is %T, want *chunk.PartitionedOverlay", pov)
				}
			}
			if got := dumpStore(pov); !sameCells(want, got) {
				t.Fatalf("%v/%v: partitioned overlay differs from legacy kernel (%d vs %d cells)",
					sem, mode, len(got), len(want))
			}
		}
	}
}

// TestKernelQuickLegacyEquivalenceWorkforce is the property form over a
// generated workforce cube: for random scopes, perspective sets,
// semantics and modes, the chunk-native serial overlay, the parallel
// partitioned overlay and the legacy MemStore kernel agree cell for
// cell.
func TestKernelQuickLegacyEquivalenceWorkforce(t *testing.T) {
	w, err := workload.NewWorkforce(workload.ConfigTiny())
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w.Cube, workload.DimDepartment)
	if err != nil {
		t.Fatal(err)
	}
	property := func(memberBits, perspBits uint16, semPick, modePick, workerPick uint8) bool {
		var members []string
		for i, name := range w.Changing {
			if memberBits&(1<<uint(i%16)) != 0 {
				members = append(members, name)
			}
		}
		if len(members) == 0 {
			members = w.Changing[:1]
		}
		var ps []int
		for m := 0; m < w.Config.Months; m++ {
			if perspBits&(1<<uint(m)) != 0 {
				ps = append(ps, m)
			}
		}
		if len(ps) == 0 {
			ps = []int{0}
		}
		q := PerspectiveQuery{
			Members:      members,
			Perspectives: ps,
			Sem:          allSemantics[int(semPick)%len(allSemantics)],
			Mode:         []perspective.Mode{perspective.NonVisual, perspective.Visual}[int(modePick)%2],
		}
		workers := []int{2, 4, 8}[int(workerPick)%3]

		plan, perr := e.PlanPerspective(q)
		serial, serr := e.ExecPerspective(q)
		par, parErr := e.ExecPerspectiveWith(ExecContext{Workers: workers}, q)
		if perr != nil || serr != nil || parErr != nil {
			// All three paths must fail together with the same error.
			return perr != nil && serr != nil && parErr != nil &&
				perr.Error() == serr.Error() && serr.Error() == parErr.Error()
		}
		want := dumpStore(legacyOverlay(e, plan))
		return sameCells(want, dumpStore(overlayOf(t, serial))) &&
			sameCells(want, dumpStore(overlayOf(t, par)))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelAmortizedAllocsPerCell is the core-level allocation
// regression: re-running scanInto against a pre-warmed overlay, the
// allocations amortize to (well under) one per relocated cell. The
// exact-zero per-cell bound lives next to the Overlay in
// internal/chunk; this test pins the whole kernel loop — Join, target
// lookup, SplitID, chunk write — to O(chunks) allocations, not
// O(cells). The legacy MemStore kernel allocates at least one address
// key per cell, so its ratio is ≥ 1 by construction.
func TestKernelAmortizedAllocsPerCell(t *testing.T) {
	e := newEngine(t)
	q := PerspectiveQuery{
		Members: []string{"Joe"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
		Sem: perspective.Forward, Mode: perspective.NonVisual,
	}
	plan, err := e.PlanPerspective(q)
	if err != nil {
		t.Fatal(err)
	}
	ov := chunk.NewOverlay(e.store.Geometry())
	tally, err := e.scanInto(nil, plan.Schedule, plan, ov, nil, trace.SpanRef{})
	if err != nil {
		t.Fatal(err)
	}
	if tally.cellsRelocated == 0 {
		t.Fatal("no cells relocated; test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.scanInto(nil, plan.Schedule, plan, ov, nil, trace.SpanRef{}); err != nil {
			t.Fatal(err)
		}
	})
	perCell := allocs / float64(tally.cellsRelocated)
	if perCell >= 1 {
		t.Fatalf("scanInto allocates %.2f/run = %.3f per relocated cell (%d cells); want amortized < 1",
			allocs, perCell, tally.cellsRelocated)
	}
}

// sameBits reports whether two cell dumps hold the same addresses with
// bit-identical values (so -0 and 0 differ).
func sameBits(want, got map[string]float64) bool {
	if len(want) != len(got) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// paperScenarioLayers builds a sealed 3-layer chain over the paper's
// warehouse: overrides of base cells, tombstones of base and of older
// layer cells, a write over an older tombstone, and Contractor/Joe
// cells in Texas, a chunk the base never materialized.
func paperScenarioLayers(t *testing.T, base *cube.Cube) []*chunk.Layer {
	t.Helper()
	g := base.Store().(*chunk.Store).Geometry()
	type edit struct {
		org, loc string
		month    int
		meas     string
		v        float64 // NaN = tombstone
	}
	del := math.NaN()
	batches := [][]edit{
		{
			{"FTE/Joe", "NY", paperdata.Jan, "Salary", 11},
			{"FTE/Lisa", "NY", paperdata.Mar, "Salary", 12},
			{"Contractor/Joe", "TX", paperdata.Apr, "Salary", 7},
			{"Contractor/Joe", "TX", paperdata.Jun, "Salary", 7},
			{"Contractor/Joe", "TX", paperdata.Jul, "Salary", 8},
		},
		{
			{"Contractor/Joe", "NY", paperdata.Mar, "Salary", del},
			{"FTE/Lisa", "NY", paperdata.Apr, "Salary", del},
			{"PTE/Joe", "NY", paperdata.Feb, "Benefits", 3.5},
			{"PTE/Tom", "NY", paperdata.May, "Salary", 9},
		},
		{
			{"Contractor/Joe", "NY", paperdata.Mar, "Salary", 31},
			{"Contractor/Joe", "TX", paperdata.Jun, "Salary", del},
			{"FTE/Lisa", "NY", paperdata.Feb, "Salary", del},
			{"PTE/Tom", "NY", paperdata.May, "Salary", 10},
		},
	}
	var layers []*chunk.Layer
	for _, batch := range batches {
		l := chunk.NewLayer(g)
		for _, ed := range batch {
			ids := []dimension.MemberID{
				base.Dim(0).MustLookup(ed.org), base.Dim(1).MustLookup(ed.loc),
				base.Dim(2).Leaf(ed.month).ID, base.Dim(3).MustLookup(ed.meas),
			}
			addr, ok := base.Ordinals(ids)
			if !ok {
				l.Seal()
				t.Fatalf("edit %+v does not name a leaf cell", ed)
			}
			if math.IsNaN(ed.v) {
				l.Delete(addr)
			} else {
				l.Set(addr, ed.v)
			}
		}
		l.Seal()
		layers = append(layers, l)
	}
	return layers
}

// schedulesLayerOnly reports whether the plan reads a chunk the base
// store never materialized.
func schedulesLayerOnly(st *chunk.Store, plan *PhysicalPlan) bool {
	for _, id := range plan.Schedule {
		if st.ReadChunk(id) == nil {
			return true
		}
	}
	return false
}

// TestKernelAllRepsMatchLegacy pins the single relocation loop against
// the per-cell oracle over every source shape the scan sees: the
// store's automatic dense/sparse mix, an all-sparse and an
// all-run-encoded store, and a 3-layer scenario chain (writes,
// tombstones, a layer-only chunk) over the automatic store. For each,
// at 5 semantics × 2 modes of ExecPerspective and both modes of
// ExecChanges (extended varying dimension), serial and with 4 workers,
// the engine's overlay is bit-identical to legacyOverlay's.
func TestKernelAllRepsMatchLegacy(t *testing.T) {
	sources := []struct {
		name    string
		convert func(st *chunk.Store) int // nil keeps the store as built
		chain   bool
	}{
		{name: "auto"},
		{name: "sparse", convert: (*chunk.Store).ForceSparseAll},
		{name: "run-encoded", convert: (*chunk.Store).ForceRunEncodeAll},
		{name: "chain", chain: true},
	}
	modes := []perspective.Mode{perspective.NonVisual, perspective.Visual}
	for _, src := range sources {
		base := paperdata.ChunkedWarehouse(nil)
		st := base.Store().(*chunk.Store)
		if src.convert != nil && src.convert(st) == 0 {
			t.Fatalf("%s: no chunk converted", src.name)
		}
		reps := map[chunk.Representation]int{}
		for _, id := range st.ChunkIDs() {
			reps[st.ReadChunk(id).Rep()]++
		}
		if src.name == "auto" && (reps[chunk.Dense] == 0 || reps[chunk.Sparse] == 0) {
			t.Fatalf("auto store representations %v: want both dense and sparse chunks", reps)
		}
		c := base
		var layers []*chunk.Layer
		if src.chain {
			layers = paperScenarioLayers(t, base)
			c = cube.NewWithStore(chunk.NewChain(base.Store(), layers), base.Dims()...)
			for _, b := range base.Bindings() {
				if err := c.AddBinding(b); err != nil {
					t.Fatal(err)
				}
			}
			c.SetRules(base.Rules())
		}
		e, err := New(c, "Organization")
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if src.chain != (e.chain != nil) {
			t.Fatalf("%s: engine chain = %v", src.name, e.chain != nil)
		}
		check := func(label string, plan *PhysicalPlan, exec func(ExecContext) (*View, error)) {
			t.Helper()
			want := dumpStore(legacyOverlay(e, plan, layers...))
			if len(want) == 0 {
				t.Fatalf("%s/%s: oracle relocated nothing; case is vacuous", src.name, label)
			}
			for _, workers := range []int{1, 4} {
				v, err := exec(ExecContext{Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", src.name, label, workers, err)
				}
				if got := dumpStore(overlayOf(t, v)); !sameBits(want, got) {
					t.Fatalf("%s/%s/workers=%d: overlay differs from the per-cell oracle (%d vs %d cells)",
						src.name, label, workers, len(got), len(want))
				}
			}
		}
		for _, sem := range allSemantics {
			for _, mode := range modes {
				q := PerspectiveQuery{
					Members: []string{"Joe", "Lisa"}, Perspectives: []int{paperdata.Feb, paperdata.Apr},
					Sem: sem, Mode: mode,
				}
				plan, err := e.PlanPerspective(q)
				if err != nil {
					t.Fatalf("%s/%v/%v plan: %v", src.name, sem, mode, err)
				}
				if src.chain && !schedulesLayerOnly(st, plan) {
					t.Fatalf("%s/%v/%v: no layer-only chunk scheduled", src.name, sem, mode)
				}
				check(fmt.Sprintf("%v/%v", sem, mode), plan, func(ec ExecContext) (*View, error) {
					return e.ExecPerspectiveWith(ec, q)
				})
			}
		}
		for _, mode := range modes {
			q := ChangesQuery{
				Changes: []algebra.Change{
					{Member: "Lisa", OldParent: "FTE", NewParent: "PTE", T: paperdata.Apr},
					{Member: "Tom", OldParent: "PTE", NewParent: "Contractor", T: paperdata.Mar},
				},
				Mode: mode,
			}
			plan, err := e.PlanChanges(q)
			if err != nil {
				t.Fatalf("%s/changes/%v plan: %v", src.name, mode, err)
			}
			check(fmt.Sprintf("changes/%v", mode), plan, func(ec ExecContext) (*View, error) {
				return e.ExecChangesWith(ec, q)
			})
		}
	}
}
