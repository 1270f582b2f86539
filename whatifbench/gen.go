package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"whatifolap/internal/cube"
	"whatifolap/internal/perspective"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

// Request is one generated operation. The request sequence of a client
// is a pure function of (workload, seed, client); the server receives
// only what is generated here.
type Request struct {
	Index  int    `json:"index"`
	Op     string `json:"op"` // query, create, edit, fork, diff, delete
	Family string `json:"family,omitempty"`
	MDX    string `json:"mdx,omitempty"`
	// Spec is the engine-level query the MDX was built from.
	Spec *EngineSpec `json:"spec,omitempty"`
	// Repeat is the index of the earlier request this one repeats, or -1.
	Repeat int `json:"repeat"`
	// Session and Role address a scenario: Role is "parent" or "fork"
	// within session Session. Queries with an empty Role go to /query.
	Session int             `json:"session"`
	Role    string          `json:"role,omitempty"`
	Edits   []scenario.Edit `json:"edits,omitempty"`
}

// EngineSpec is the engine-level form of a perspective query: the
// varying members in scope (nil = the engine's default scope), the
// perspective leaf ordinals, the semantics and the mode.
type EngineSpec struct {
	Members      []string              `json:"members"`
	Perspectives []int                 `json:"perspectives"`
	Sem          perspective.Semantics `json:"sem"`
	Mode         perspective.Mode      `json:"mode"`
}

const (
	opQuery  = "query"
	opCreate = "create"
	opEdit   = "edit"
	opFork   = "fork"
	opDiff   = "diff"
	opDelete = "delete"

	roleParent = "parent"
	roleFork   = "fork"
)

// schema is the part of the cube's shape the generator draws from.
type schema struct {
	// depts are the listed departments queries and edits rotate through.
	depts []string
	// leaves maps every department to its child leaf paths, names to
	// their base names.
	leaves map[string][]string
	names  map[string][]string
	// allNames is every base name under the departments, deduplicated.
	allNames []string
	// instances maps each changing employee to its instance paths.
	changing  []string
	instances map[string][]string
	months    []string
	accounts  []string
	scenarios []string
	// fixed is the slicer tail naming the single-member dimensions.
	fixed string
}

// newSchema reads the generator's view of c; depts are the listed
// departments, each of which must be a department of c.
func newSchema(c *cube.Cube, depts []string) (*schema, error) {
	s := &schema{depts: depts, leaves: map[string][]string{}, names: map[string][]string{}, instances: map[string][]string{}}
	dept := c.Dim(c.DimIndex(workload.DimDepartment))
	seen := map[string]bool{}
	for _, id := range dept.Member(dept.Root()).Children {
		d := dept.Member(id).Name
		for _, ch := range dept.Member(id).Children {
			m := dept.Member(ch)
			s.leaves[d] = append(s.leaves[d], dept.Path(ch))
			s.names[d] = append(s.names[d], m.Name)
			if !seen[m.Name] {
				seen[m.Name] = true
				s.allNames = append(s.allNames, m.Name)
			}
		}
	}
	s.changing = dept.VaryingMembers()
	for _, name := range s.changing {
		for _, id := range dept.Instances(name) {
			s.instances[name] = append(s.instances[name], dept.Path(id))
		}
	}
	leafNames := func(dim string) []string {
		d := c.Dim(c.DimIndex(dim))
		var out []string
		for _, id := range d.Leaves() {
			out = append(out, d.Member(id).Name)
		}
		return out
	}
	s.months = leafNames(workload.DimPeriod)
	s.accounts = leafNames(workload.DimAccount)
	s.scenarios = leafNames(workload.DimScenario)
	var fixed []string
	for _, dim := range []string{workload.DimCurrency, workload.DimVersion, workload.DimValueType} {
		fixed = append(fixed, fmt.Sprintf("[%s].[%s]", dim, leafNames(dim)[0]))
	}
	s.fixed = strings.Join(fixed, ",")
	for _, d := range depts {
		if len(s.names[d]) == 0 {
			return nil, fmt.Errorf("listed department %q has no employees in the cube", d)
		}
	}
	return s, nil
}

// deck draws indexes in [0, n) in shuffled passes, so each pass of n
// draws holds each index exactly once: the shares in workloads.json
// hold over every whole pass, not just on average.
type deck struct {
	n     int
	order []int
}

func (d *deck) draw(rng *rand.Rand) int {
	if len(d.order) == 0 {
		d.order = rng.Perm(d.n)
	}
	i := d.order[0]
	d.order = d.order[1:]
	return i
}

// paramDecks are the per-family decks of query parameters.
type paramDecks struct{ sem, mode, persp deck }

// generator produces one client's request stream.
type generator struct {
	w   *workloadSpec
	sch *schema
	rng *rand.Rand

	families []string
	family   deck
	// params holds each family's own semantics, mode and perspective
	// count decks, so each family's mix is exact, not just the total.
	params map[string]*paramDecks
	cur    *paramDecks
	// dept is the client's position in the fixed department rotation.
	dept    int
	account deck
	scen    deck

	n       int
	fresh   []*Request // earlier fresh queries: the repeat pool
	repeats map[int]bool

	pending []*Request // scenario: the rest of the current session
	session int
}

func newGenerator(w *workloadSpec, sch *schema, seed int64, client int) *generator {
	g := &generator{
		w:   w,
		sch: sch,
		rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7_919 + 1)),
	}
	g.params = map[string]*paramDecks{}
	for _, f := range w.Families {
		for i := 0; i < f.Share; i++ {
			g.families = append(g.families, f.Name)
		}
		g.params[f.Name] = &paramDecks{
			sem:   deck{n: len(w.sems)},
			mode:  deck{n: len(modes)},
			persp: deck{n: maxPerspectives - minPerspectives + 1},
		}
	}
	g.family.n = len(g.families)
	g.dept = client
	g.account.n = len(sch.accounts)
	g.scen.n = len(sch.scenarios)
	return g
}

// atBoundary reports whether the next request starts a new unit of
// work: any request, or for scenario workloads a new session. Clients
// stop only at a boundary, so a run ends with no session half done.
func (g *generator) atBoundary() bool { return len(g.pending) == 0 }

// Next returns the client's next request.
func (g *generator) Next() *Request {
	var r *Request
	if g.w.Session != nil {
		if len(g.pending) == 0 {
			g.pending = g.newSession()
		}
		r, g.pending = g.pending[0], g.pending[1:]
	} else {
		r = g.nextQuery()
	}
	r.Index = g.n
	g.n++
	return r
}

func (g *generator) nextQuery() *Request {
	pos := g.n % block
	if pos == 0 {
		g.repeats = map[int]bool{}
		for _, p := range g.rng.Perm(block)[:g.w.RepeatsPerBlock] {
			g.repeats[p] = true
		}
	}
	if g.repeats[pos] && len(g.fresh) > 0 {
		src := g.fresh[g.rng.Intn(len(g.fresh))]
		r := *src
		r.Repeat = src.Index
		return &r
	}
	name := g.families[g.family.draw(g.rng)]
	g.cur = g.params[name]
	r := families[name](g)
	r.Family = name
	g.fresh = append(g.fresh, r)
	return r
}

// families builds one fresh query of each shape.
var families = map[string]func(g *generator) *Request{
	// Period levels 1-2 (quarters and months) × Account leaves, under
	// one scenario; no Department on the grid, so the engine takes its
	// default scope (every changing employee).
	"period_account": func(g *generator) *Request {
		spec, with := g.perspective(nil)
		return g.query(spec, fmt.Sprintf("%sSELECT {[Account].Levels(0).Members} ON COLUMNS, "+
			"{Descendants([Period],1,SELF_AND_AFTER)} ON ROWS FROM [App].[Db] WHERE ([Scenario].[%s],%s)",
			with, g.draw(&g.scen, g.sch.scenarios), g.sch.fixed))
	},
	// Department level 1 × quarters, one account: every employee is in
	// scope.
	"department_quarters": func(g *generator) *Request {
		spec, with := g.perspective(g.sch.allNames)
		return g.query(spec, fmt.Sprintf("%sSELECT {Descendants([Period],1,SELF)} ON COLUMNS, "+
			"{Descendants([Department],1,SELF)} ON ROWS FROM [App].[Db] WHERE ([Account].[%s],[Scenario].[%s],%s)",
			with, g.draw(&g.account, g.sch.accounts), g.draw(&g.scen, g.sch.scenarios), g.sch.fixed))
	},
	// The listed departments × Period levels 1-2, one account.
	"departments_period": func(g *generator) *Request {
		var rows, members []string
		seen := map[string]bool{}
		for _, d := range g.sch.depts {
			rows = append(rows, fmt.Sprintf("[Department].[%s]", d))
			for _, n := range g.sch.names[d] {
				if !seen[n] {
					seen[n] = true
					members = append(members, n)
				}
			}
		}
		spec, with := g.perspective(members)
		return g.query(spec, fmt.Sprintf("%sSELECT {Descendants([Period],1,SELF_AND_AFTER)} ON COLUMNS, "+
			"{%s} ON ROWS FROM [App].[Db] WHERE ([Account].[%s],[Scenario].[%s],%s)",
			with, strings.Join(rows, ","), g.draw(&g.account, g.sch.accounts), g.draw(&g.scen, g.sch.scenarios), g.sch.fixed))
	},
	// One department's employees × 12 months, one account.
	"department_leaves": func(g *generator) *Request {
		return g.drill(g.nextDept(), g.draw(&g.account, g.sch.accounts), g.draw(&g.scen, g.sch.scenarios))
	},
}

func (g *generator) drill(dept, account, scen string) *Request {
	spec, with := g.perspective(g.sch.names[dept])
	return g.query(spec, fmt.Sprintf("%sSELECT {[Period].Levels(0).Members} ON COLUMNS, "+
		"{[Department].[%s].Children} ON ROWS FROM [App].[Db] WHERE ([Account].[%s],[Scenario].[%s],%s)",
		with, dept, account, scen, g.sch.fixed))
}

func (g *generator) query(spec *EngineSpec, mdx string) *Request {
	return &Request{Op: opQuery, MDX: mdx, Spec: spec, Repeat: -1}
}

func (g *generator) pick(from []string) string { return from[g.rng.Intn(len(from))] }

// draw picks from a list through its deck: the account or scenario a
// query is about, so per-run mixes match across seeds.
func (g *generator) draw(d *deck, from []string) string { return from[d.draw(g.rng)] }

// nextDept is the next department of the client's rotation. The order
// does not depend on the seed, so every run measures the same
// departments in the same shares.
func (g *generator) nextDept() string {
	d := g.sch.depts[g.dept%len(g.sch.depts)]
	g.dept++
	return d
}

// perspective draws semantics, mode and perspective months, returning
// the engine spec and the WITH clause.
func (g *generator) perspective(members []string) (*EngineSpec, string) {
	spec := &EngineSpec{
		Members: members,
		Sem:     g.w.sems[g.cur.sem.draw(g.rng)],
		Mode:    modes[g.cur.mode.draw(g.rng)],
	}
	k := minPerspectives + g.cur.persp.draw(g.rng)
	spec.Perspectives = g.rng.Perm(len(g.sch.months))[:k]
	sort.Ints(spec.Perspectives)
	points := make([]string, k)
	for i, m := range spec.Perspectives {
		points[i] = "(" + g.sch.months[m] + ")"
	}
	mode := "NONVISUAL"
	if spec.Mode == perspective.Visual {
		mode = "VISUAL"
	}
	return spec, fmt.Sprintf("WITH PERSPECTIVE {%s} FOR Department %s %s ",
		strings.Join(points, ","), spec.Sem, mode)
}

// newSession lays out one scenario session: create the parent, edit it
// ForkAfter times, fork, edit the fork for the remaining batches (so the
// chain is never deeper than Batches), diff the fork against its
// parent, delete both. Each batch edits one department under the
// session's account and is followed by drill queries on that department
// and account against the scenario just edited.
func (g *generator) newSession() []*Request {
	s := g.w.Session
	id := g.session
	g.session++
	account := g.draw(&g.account, g.sch.accounts)
	g.cur = g.params[g.families[0]]
	ops := []*Request{{Op: opCreate, Session: id, Role: roleParent, Repeat: -1}}
	role := roleParent
	for b := 1; b <= s.Batches; b++ {
		if b == s.ForkAfter+1 {
			ops = append(ops, &Request{Op: opFork, Session: id, Role: roleFork, Repeat: -1})
			role = roleFork
		}
		dept := g.nextDept()
		ops = append(ops, &Request{Op: opEdit, Session: id, Role: role, Edits: g.edits(b, dept, account), Repeat: -1})
		for q := 0; q < s.QueriesPerBatch; q++ {
			r := g.drill(dept, account, g.draw(&g.scen, g.sch.scenarios))
			r.Family, r.Session, r.Role = g.families[0], id, role
			ops = append(ops, r)
		}
	}
	return append(ops,
		&Request{Op: opDiff, Session: id, Role: roleFork, Repeat: -1},
		&Request{Op: opDelete, Session: id, Role: roleFork, Repeat: -1},
		&Request{Op: opDelete, Session: id, Role: roleParent, Repeat: -1})
}

// edits builds batch b: CellsPerBatch cell sets on the department's
// employees under the account, plus, every ValidityEvery
// batches, a validity-window move of one changing employee.
func (g *generator) edits(b int, dept, account string) []scenario.Edit {
	s := g.w.Session
	out := make([]scenario.Edit, 0, s.CellsPerBatch+1)
	for i := 0; i < s.CellsPerBatch; i++ {
		out = append(out, scenario.Edit{
			Op: scenario.OpSet,
			Cell: map[string]string{
				workload.DimDepartment: g.pick(g.sch.leaves[dept]),
				workload.DimPeriod:     g.pick(g.sch.months),
				workload.DimAccount:    account,
				workload.DimScenario:   g.pick(g.sch.scenarios),
			},
			Value: float64(g.rng.Intn(1_000_000)) / 100,
		})
	}
	if b%s.ValidityEvery == 0 {
		insts := g.sch.instances[g.pick(g.sch.changing)]
		lo := g.rng.Intn(len(g.sch.months))
		hi := min(lo+g.rng.Intn(3), len(g.sch.months)-1)
		out = append(out, scenario.Edit{
			Op:     scenario.OpValidity,
			Dim:    workload.DimDepartment,
			Member: g.pick(insts),
			From:   g.sch.months[lo],
			To:     g.sch.months[hi],
		})
	}
	return out
}
