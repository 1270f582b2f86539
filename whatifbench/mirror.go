package main

import (
	"fmt"

	"whatifolap/internal/cube"
	"whatifolap/internal/scenario"
)

// mirror replays one client's scenario lifecycle — create, fork, edit,
// diff, delete — on local scenarios of its own manager, keyed by session
// role. The output check and the traced replay both drive it and add
// their own step for queries.
type mirror struct {
	base  *cube.Cube
	mgr   *scenario.Manager
	roles map[string]*scenario.Scenario
}

func newMirror(base *cube.Cube) *mirror {
	return &mirror{base: base, mgr: scenario.NewManager(), roles: map[string]*scenario.Scenario{}}
}

// scenario returns the local scenario playing role.
func (m *mirror) scenario(role string) (*scenario.Scenario, error) {
	if sc := m.roles[role]; sc != nil {
		return sc, nil
	}
	return nil, fmt.Errorf("no %s scenario in the replay", role)
}

// step mirrors lifecycle request r, returning the revision an edit
// reached and the cells a diff found. When timed is set, it is called
// with the span name just before the layer call of an edit
// (Scenario.Apply) or a diff (scenario.Diff), and the function it
// returns just after.
func (m *mirror) step(r *Request, timed func(name string) func()) (rev int64, diff []scenario.CellDiff, err error) {
	if timed == nil {
		timed = func(string) func() { return func() {} }
	}
	switch r.Op {
	case opCreate:
		m.roles[r.Role], err = m.mgr.Create("", cubeName, 1, m.base)
		return 0, nil, err
	case opFork:
		parent, err := m.scenario(roleParent)
		if err != nil {
			return 0, nil, err
		}
		m.roles[r.Role], err = m.mgr.Fork(parent.ID(), "")
		return 0, nil, err
	case opEdit:
		sc, err := m.scenario(r.Role)
		if err != nil {
			return 0, nil, err
		}
		done := timed(spanApply)
		rev, err = sc.Apply(r.Edits)
		done()
		return rev, nil, err
	case opDiff:
		a, err := m.scenario(r.Role)
		if err != nil {
			return 0, nil, err
		}
		b, err := m.scenario(roleParent)
		if err != nil {
			return 0, nil, err
		}
		done := timed(spanDiff)
		diff, err = scenario.Diff(a, b)
		done()
		return 0, diff, err
	case opDelete:
		sc, err := m.scenario(r.Role)
		if err != nil {
			return 0, nil, err
		}
		m.mgr.Delete(sc.ID())
		delete(m.roles, r.Role)
		return 0, nil, nil
	}
	return 0, nil, fmt.Errorf("%s is not a lifecycle request", r.Op)
}
