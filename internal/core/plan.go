package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"whatifolap/internal/pebble"
)

// ExecContext carries per-execution parameters through the engine's
// staged pipeline. The zero value runs serially without cancellation.
// The engine holds no per-query state, so one engine serves concurrent
// queries, each with its own ExecContext.
type ExecContext struct {
	// Ctx, when non-nil, is checked at chunk-iteration boundaries, so a
	// long scan is abandoned promptly with the context's error.
	Ctx context.Context
	// Workers bounds the scan fan-out over independent merge groups.
	// Values <= 1 scan serially in the plan's global read order.
	Workers int
}

// err reports the context's error, if any.
func (ec ExecContext) err() error {
	if ec.Ctx == nil {
		return nil
	}
	return ec.Ctx.Err()
}

// context returns the caller's context. The zero ExecContext is the
// documented "no cancellation" opt-out, so the nil case is normalized
// here, at the API boundary, and nowhere deeper in the pipeline.
func (ec ExecContext) context() context.Context {
	if ec.Ctx != nil {
		return ec.Ctx
	}
	//lint:ctxok API-boundary shim: a zero ExecContext documents the caller's opt-out of cancellation
	return context.Background()
}

// MergeGroup is one independent unit of scan work: the relevant chunks
// sharing every chunk coordinate outside the varying dimension. A merge
// edge connects chunks that exchange relocated cells, and relocation
// only moves a cell along the varying dimension, so both endpoints of
// any edge share all non-varying coordinates — edges cannot cross
// groups, which is what lets groups scan concurrently while the
// pebbling order is preserved within each.
type MergeGroup struct {
	// Rest is the chunk coordinate with the varying dimension masked to
	// -1, identifying the group.
	Rest []int
	// Chunks is the group's read schedule: the plan's global schedule
	// restricted to this group, preserving relative order (so the
	// per-group pebbling stays legal).
	Chunks []int
	// Edges counts merge-dependency edges inside the group.
	Edges int
	// Peak is the peak co-resident chunk count when the group's
	// schedule is pebbled on its own subgraph.
	Peak int
}

// SplitChunks cuts the group's read schedule into at most maxParts
// contiguous parts for intra-group scan parallelism. A cut is legal only
// where no merge edge is in flight — every edge's two endpoints must
// land in the same part, so each part's restriction of the schedule
// remains a complete pebbling of the chunks it reads and the
// neighbor-pinning executed per part never waits on a chunk another
// part owns. Crossing-edge counts per boundary come from one
// difference-array pass, so splitting is O(chunks + edges).
//
// Parts are returned in schedule order; splitting is deterministic.
// neighbors is the plan's merge adjacency (PhysicalPlan.Neighbors).
func (mg *MergeGroup) SplitChunks(maxParts int, neighbors map[int][]int) [][]int {
	n := len(mg.Chunks)
	if maxParts <= 1 || n <= 1 {
		return [][]int{mg.Chunks}
	}
	pos := make(map[int]int, n)
	for i, id := range mg.Chunks {
		pos[id] = i
	}
	// diff accumulates edge spans: an edge between slots i < j makes the
	// boundaries before slots i+1..j uncuttable. After a prefix sum,
	// crossing == 0 at slot b means no edge spans the boundary before b.
	diff := make([]int, n+1)
	for i, id := range mg.Chunks {
		for _, nb := range neighbors[id] {
			if j, ok := pos[nb]; ok && j > i {
				diff[i+1]++
				diff[j+1]--
			}
		}
	}
	per := (n + maxParts - 1) / maxParts
	out := make([][]int, 0, maxParts)
	start, crossing := 0, 0
	for b := 1; b < n; b++ {
		crossing += diff[b]
		if crossing == 0 && b-start >= per && len(out) < maxParts-1 {
			out = append(out, mg.Chunks[start:b])
			start = b
		}
	}
	return append(out, mg.Chunks[start:])
}

// subTask is one unit of parallel scan work: a contiguous cut of one
// merge group's read schedule. Relocation destinations are injective
// per parameter leaf, so the overlay cell sets written by sibling
// sub-tasks of one group are disjoint and fold order-insensitively
// (Overlay.Absorb) at the merge barrier.
type subTask struct {
	group  int
	chunks []int
	// part is the 1-based index of this cut within its group when the
	// group was split, 0 when the group runs as a single task — the
	// "subtask" span attribute, elided for unsplit groups.
	part int
}

// splitSubtasks cuts every merge group's schedule into sub-tasks,
// allocating the targetParts budget to groups in proportion to their
// chunk counts (each group gets at least one task), so scan parallelism
// scales with min(workers, chunks) instead of min(workers, groups) —
// one huge group no longer serializes the scan.
func splitSubtasks(p *PhysicalPlan, targetParts int) []subTask {
	total := 0
	for _, mg := range p.Groups {
		total += len(mg.Chunks)
	}
	tasks := make([]subTask, 0, len(p.Groups))
	for gi := range p.Groups {
		mg := &p.Groups[gi]
		want := 1
		if total > 0 {
			want = targetParts * len(mg.Chunks) / total
		}
		if want < 1 {
			want = 1
		}
		parts := mg.SplitChunks(want, p.Neighbors)
		for i, part := range parts {
			t := subTask{group: gi, chunks: part}
			if len(parts) > 1 {
				t.part = i + 1
			}
			tasks = append(tasks, t)
		}
	}
	return tasks
}

// PhysicalPlan is the engine's inspectable physical execution plan for
// one relocation query: the relocation tables, which chunks to read in
// what order, and the merge-group partition the parallel scan fans out
// over. A plan is a pure value — building one performs no chunk I/O and
// mutates no engine state — so it can be printed (Describe), tested
// stage by stage, and executed concurrently.
type PhysicalPlan struct {
	// Order is the read-order policy the schedule was built under.
	Order ReadOrder
	// Target maps each source varying ordinal to its destination
	// ordinal per parameter leaf (-1 = the cell vanishes). Read-only
	// after planning; scan workers share it.
	Target map[int][]int
	// Scoped marks varying leaf ordinals owned by the query's overlay.
	Scoped []bool
	// Schedule is the global serial chunk read order.
	Schedule []int
	// Groups partitions Schedule into independent merge groups, in
	// deterministic (masked-coordinate) order.
	Groups []MergeGroup
	// Neighbors is the merge dependency adjacency: for each relevant
	// chunk, the chunks it exchanges relocated cells with. The executor
	// feeds it to the chunk store's buffer pool as pin hints — a chunk
	// stays pinned against eviction while any of its partners is still
	// unscanned (the §5.2 pebbling objective, enforced at the pool).
	Neighbors map[int][]int
	// Stats carries the planning-stage statistics: source instances,
	// relevant chunks, merge edges and groups, the pebbling peak, and
	// the planning wall time.
	Stats Stats
}

// buildPlan runs the planning stage: prune relocation rows that
// contribute nothing, find the relevant chunks, build the merge
// dependency graph, partition it into merge groups, and order the
// reads under the engine's read-order policy.
func (e *Engine) buildPlan(target map[int][]int, scoped []bool) (*PhysicalPlan, error) {
	start := time.Now()
	g := e.store.Geometry()
	cdV := g.ChunkDims[e.vi]
	cdP := g.ChunkDims[e.pi]
	p := &PhysicalPlan{Order: e.order, Target: target, Scoped: scoped}

	// Drop source rows that contribute nothing (every destination -1):
	// e.g. under static semantics, instances not valid at any
	// perspective. Confining reads to contributing rows is the paper's
	// §6.3 point — work must track the varying members in scope.
	for srcOrd, row := range target {
		live := false
		for _, dst := range row {
			if dst >= 0 {
				live = true
				break
			}
		}
		if !live {
			delete(target, srcOrd)
		}
	}

	// Varying-dimension chunk indices holding source rows.
	srcVCs := map[int]bool{}
	for srcOrd := range target {
		srcVCs[srcOrd/cdV] = true
	}
	p.Stats.SourceInstances = len(target)

	// Cross-chunk transfers: (vcSrc, vcDst, paramChunk) triples.
	type triple struct{ vs, vd, pc int }
	transfers := map[triple]bool{}
	for srcOrd, row := range target {
		vs := srcOrd / cdV
		for t, dstOrd := range row {
			if dstOrd < 0 {
				continue
			}
			vd := dstOrd / cdV
			if vd != vs {
				transfers[triple{vs, vd, t / cdP}] = true
			}
		}
	}

	// Relevant chunks: materialized chunks whose varying coordinate
	// holds source rows, grouped by their coordinates outside the
	// varying dimension to find merge partners.
	type group struct {
		rest       []int
		paramCoord int
		byVC       map[int]int // varying chunk coord -> chunk ID
		graph      *pebble.Graph
	}
	groups := map[string]*group{}
	var keys []string
	graph := pebble.NewGraph()
	var relevant []int
	ccoord := make([]int, g.NumDims())
	for _, id := range e.sourceChunkIDs() {
		g.CoordOf(id, ccoord)
		if !srcVCs[ccoord[e.vi]] {
			continue
		}
		relevant = append(relevant, id)
		graph.AddNode(id)
		key := restKey(ccoord, e.vi)
		grp := groups[key]
		if grp == nil {
			rest := make([]int, len(ccoord))
			copy(rest, ccoord)
			rest[e.vi] = -1
			grp = &group{rest: rest, paramCoord: ccoord[e.pi], byVC: map[int]int{}, graph: pebble.NewGraph()}
			groups[key] = grp
			keys = append(keys, key)
		}
		grp.byVC[ccoord[e.vi]] = id
		grp.graph.AddNode(id)
	}
	p.Stats.RelevantChunks = len(relevant)

	// Merge dependency edges: chunks in the same group whose varying
	// coordinates exchange data at this group's parameter coordinate.
	p.Neighbors = make(map[int][]int)
	for tr := range transfers {
		for _, grp := range groups {
			if grp.paramCoord != tr.pc {
				continue
			}
			a, okA := grp.byVC[tr.vs]
			b, okB := grp.byVC[tr.vd]
			if okA && okB && a != b && !graph.HasEdge(a, b) {
				graph.AddEdge(a, b)
				grp.graph.AddEdge(a, b)
				p.Neighbors[a] = append(p.Neighbors[a], b)
				p.Neighbors[b] = append(p.Neighbors[b], a)
				p.Stats.MergeEdges++
			}
		}
	}

	// Global read order (the serial schedule; also the baseline the
	// read-order figures measure).
	switch e.order {
	case OrderPebbling:
		sched := pebble.HeuristicPebble(graph)
		p.Schedule = sched.Order
		p.Stats.PeakResidentChunks = sched.Peak
	default:
		perm := e.readPermutation()
		p.Schedule = sortChunksByOrder(g, relevant, perm)
		peak, err := pebble.VerifySchedule(graph, p.Schedule)
		if err != nil {
			return nil, fmt.Errorf("core: sequential schedule invalid: %w", err)
		}
		p.Stats.PeakResidentChunks = peak
	}

	// Partition the schedule into merge groups. Restricting the global
	// order to a group keeps relative order, so the restriction is a
	// legal pebbling of the group's subgraph (all of a chunk's merge
	// neighbors are in its own group).
	sort.Strings(keys)
	pos := make(map[int]int, len(p.Schedule))
	for i, id := range p.Schedule {
		pos[id] = i
	}
	for _, key := range keys {
		grp := groups[key]
		mg := MergeGroup{Rest: grp.rest, Chunks: make([]int, 0, len(grp.byVC))}
		for _, id := range grp.byVC {
			mg.Chunks = append(mg.Chunks, id)
		}
		sort.Slice(mg.Chunks, func(i, j int) bool { return pos[mg.Chunks[i]] < pos[mg.Chunks[j]] })
		for _, id := range mg.Chunks {
			mg.Edges += grp.graph.Degree(id)
		}
		mg.Edges /= 2
		peak, err := pebble.VerifySchedule(grp.graph, mg.Chunks)
		if err != nil {
			return nil, fmt.Errorf("core: merge-group schedule invalid: %w", err)
		}
		mg.Peak = peak
		p.Groups = append(p.Groups, mg)
	}
	p.Stats.MergeGroups = len(p.Groups)
	p.Stats.PlanMs = msSince(start)
	return p, nil
}

// Describe renders the plan for explain output: chunk and group counts,
// the read schedule, and the merge-group partition the parallel scan
// fans out over.
func (p *PhysicalPlan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "physical plan: %d relevant chunks, %d merge groups, %d merge edges\n",
		p.Stats.RelevantChunks, p.Stats.MergeGroups, p.Stats.MergeEdges)
	fmt.Fprintf(&b, "  read order %s, peak resident chunks %d\n", p.Order, p.Stats.PeakResidentChunks)
	fmt.Fprintf(&b, "  schedule:  %s\n", formatIDs(p.Schedule, 16))
	for i, mg := range p.Groups {
		fmt.Fprintf(&b, "  group %-3d rest=%s: %d chunks %s, %d edges, peak %d\n",
			i, restString(mg.Rest), len(mg.Chunks), formatIDs(mg.Chunks, 8), mg.Edges, mg.Peak)
	}
	return b.String()
}

// formatIDs prints at most limit chunk IDs, eliding the rest.
func formatIDs(ids []int, limit int) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, id := range ids {
		if i == limit {
			fmt.Fprintf(&b, "… +%d", len(ids)-limit)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte(']')
	return b.String()
}

// restString prints a masked chunk coordinate: (·,0,2) with · at the
// varying dimension.
func restString(rest []int) string {
	parts := make([]string, len(rest))
	for i, c := range rest {
		if c < 0 {
			parts[i] = "·"
		} else {
			parts[i] = fmt.Sprint(c)
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// msSince reports the wall time since start in milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}
