package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"whatifolap/internal/core"
	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

// span is one timed call made by the benchmark. Spans of one request
// share Query. Replayed calls — the benchmark re-running, through a
// layer's public entry point, work the server did inside the request —
// hang under the span of the call that did that work, so a span's self
// time (its duration minus its children's) is the time of the layer
// itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root
	Query  int64  `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names.
const (
	spanNormalize = "mdx.Normalize"
	spanParse     = "mdx.Parse"
	spanEval      = "mdx.Evaluator.RunQueryStatsWith"
	spanExec      = "core.Engine.ExecPerspectiveWith"
	spanPlan      = "core.Engine.PlanPerspective"
	spanApply     = "scenario.Scenario.Apply"
	spanView      = "scenario.Scenario.View"
	spanDiff      = "scenario.Diff"
	spanHTTP      = "http." // + op
)

// recorder keeps one client's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	base  int // ID of the first span, so IDs are unique across clients
	spans []span
}

func (r *recorder) begin(name string, parent int, query int64) int {
	id := r.base + len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: int64(time.Since(r.epoch))})
	return id
}

func (r *recorder) end(id int) { r.spans[id-r.base].End = int64(time.Since(r.epoch)) }

// replayer runs one client's traced requests: the HTTP request, then the
// same work through each layer's public entry point, each call under a
// span. Scenario requests are mirrored on local scenarios so the
// replayed reads see the revision the server answered from.
type replayer struct {
	ctx  context.Context
	rec  recorder
	cube *cube.Cube // the served cube
	m    *mirror
	c    layerCounts
}

// layerCounts sums the work the replayed calls report.
type layerCounts struct {
	queries, evaluated, scenarioQueries, edits, diffs   int
	gridCells, chunksRead, cellsScanned, cellsRelocated int
	mergeEdges, peak, groups, layers                    int
}

func newReplayer(ctx context.Context, id int, epoch time.Time, c *cube.Cube) *replayer {
	return &replayer{
		ctx:  ctx,
		rec:  recorder{epoch: epoch, base: id << 24},
		cube: c,
		m:    newMirror(c),
	}
}

// do sends r under an HTTP span and replays its work. A replay that
// disagrees with the reply marks the request failed.
func (p *replayer) do(cl *client, r *Request) outcome {
	q := int64(cl.id)<<32 | int64(r.Index)
	h := p.rec.begin(spanHTTP+r.Op, -1, q)
	o := cl.do(r)
	p.rec.end(h)
	if r.Op == opQuery {
		p.c.queries++
	}
	if !o.ok() {
		return o
	}
	if err := p.replay(r, &o, h, q); err != nil {
		o.Err = "replay: " + err.Error()
	}
	return o
}

func (p *replayer) replay(r *Request, o *outcome, h int, q int64) error {
	if r.Op == opQuery {
		return p.query(r, o, h, q)
	}
	rev, cells, err := p.m.step(r, func(name string) func() {
		s := p.rec.begin(name, h, q)
		return func() { p.rec.end(s) }
	})
	if err != nil {
		return err
	}
	switch r.Op {
	case opEdit:
		p.c.edits++
		if rev != o.Rev {
			return fmt.Errorf("edit reached revision %d, server reports %d", rev, o.Rev)
		}
	case opDiff:
		p.c.diffs++
		if !diffEqual(cells, o.Diff) {
			return fmt.Errorf("diff has %d cells, server reports %d or different values", len(cells), len(o.Diff))
		}
	}
	return nil
}

// query replays a query: normalize (the server does it for hits too),
// the scenario view for scenario queries, then — for a cache miss —
// parse, the evaluator, and the engine calls the evaluator makes,
// rebuilt from the generator's engine spec.
func (p *replayer) query(r *Request, o *outcome, h int, q int64) error {
	s := p.rec.begin(spanNormalize, h, q)
	_, err := mdx.Normalize(r.MDX)
	p.rec.end(s)
	if err != nil {
		return err
	}
	target := p.cube
	if r.Role != "" {
		sc, err := p.m.scenario(r.Role)
		if err != nil {
			return err
		}
		s = p.rec.begin(spanView, h, q)
		view, rev, err := sc.View()
		p.rec.end(s)
		if err != nil {
			return err
		}
		if rev != o.Rev {
			return fmt.Errorf("mirror at revision %d, server answered at %d", rev, o.Rev)
		}
		target = view
		p.c.scenarioQueries++
		p.c.layers += sc.Info().Layers
	}
	if o.Hit {
		return nil
	}
	s = p.rec.begin(spanParse, h, q)
	parsed, err := mdx.Parse(r.MDX)
	p.rec.end(s)
	if err != nil {
		return err
	}
	workers := daemonConfig().ScanWorkers
	ev := p.rec.begin(spanEval, h, q)
	grid, st, err := mdx.NewEvaluator(target).RunQueryStatsWith(mdx.RunContext{Ctx: p.ctx, Workers: workers}, parsed)
	p.rec.end(ev)
	if err != nil {
		return err
	}
	if resultDigest(grid) != o.Digest {
		return fmt.Errorf("evaluator grid differs from the reply")
	}
	eng, err := core.New(target, workload.DimDepartment)
	if err != nil {
		return err
	}
	pq := core.PerspectiveQuery{Members: r.Spec.Members, Perspectives: r.Spec.Perspectives, Sem: r.Spec.Sem, Mode: r.Spec.Mode}
	x := p.rec.begin(spanExec, ev, q)
	view, err := eng.ExecPerspectiveWith(core.ExecContext{Ctx: p.ctx, Workers: workers}, pq)
	p.rec.end(x)
	if err != nil {
		return err
	}
	s = p.rec.begin(spanPlan, x, q)
	plan, err := eng.PlanPerspective(pq)
	p.rec.end(s)
	if err != nil {
		return err
	}
	// The engine call rebuilt from the spec must do the evaluator's
	// engine work, or the decomposition would be attributing time to
	// the wrong query.
	if view.Stats.ChunksRead != st.ChunksRead || view.Stats.MembersInScope != st.MembersInScope {
		return fmt.Errorf("engine spec read %d chunks for %d members, evaluator %d for %d",
			view.Stats.ChunksRead, view.Stats.MembersInScope, st.ChunksRead, st.MembersInScope)
	}
	c := &p.c
	c.evaluated++
	for _, row := range grid.Values {
		c.gridCells += len(row)
	}
	c.chunksRead += st.ChunksRead
	c.cellsScanned += st.CellsScanned
	c.cellsRelocated += st.CellsRelocated
	c.mergeEdges += plan.Stats.MergeEdges
	c.peak += plan.Stats.PeakResidentChunks
	c.groups += plan.Stats.MergeGroups
	return nil
}

// diffEqual reports whether two cell diffs agree cell for cell, values
// bit for bit.
func diffEqual(a, b []scenario.CellDiff) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y *float64) bool {
		if x == nil || y == nil {
			return x == nil && y == nil
		}
		return math.Float64bits(*x) == math.Float64bits(*y)
	}
	for i := range a {
		if len(a[i].Cell) != len(b[i].Cell) || !same(a[i].A, b[i].A) || !same(a[i].B, b[i].B) {
			return false
		}
		for k := range a[i].Cell {
			if a[i].Cell[k] != b[i].Cell[k] {
				return false
			}
		}
	}
	return true
}

// selfTimes sums, per span name, each span's duration minus its
// children's, in milliseconds.
func selfTimes(reps []*replayer) map[string]float64 {
	out := map[string]float64{}
	for _, p := range reps {
		self := make([]int64, len(p.rec.spans))
		for i, s := range p.rec.spans {
			d := s.End - s.Start
			self[i] += d
			if s.Parent >= 0 {
				self[s.Parent-p.rec.base] -= d
			}
		}
		for i, s := range p.rec.spans {
			out[s.Name] += float64(self[i]) / float64(time.Millisecond)
		}
	}
	return out
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, reps []*replayer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, p := range reps {
		for _, s := range p.rec.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
