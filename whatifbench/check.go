package main

import (
	"context"
	"fmt"
	"sync"

	olap "whatifolap"
	"whatifolap/internal/cube"
	"whatifolap/internal/scenario"
	"whatifolap/internal/workload"
)

// checkWorkers is how many reference computations run at once; each is
// a serial query.
const checkWorkers = 2

// expectation is the reference answer for one request index.
type expectation struct {
	digest [32]byte
	rev    int64
	diff   []scenario.CellDiff
	err    error
}

// checkReplies compares every successful reply in the phases' logs with
// a reference computed outside the timed window on a different path,
// and marks each disagreeing request failed:
//
//   - plain queries: a serial olap.QueryOptions call on a freshly
//     generated copy of the cube that is neither spilled nor
//     run-encoded;
//   - scenario requests: a local replay of the same sessions — queries
//     answered by olap.Query on Scenario.Materialize() of the replayed
//     scenario, edits and queries checked for the replayed revision,
//     diffs against scenario.Diff of the replayed pair.
func checkReplies(ctx context.Context, w *workloadSpec, phases ...[]clientLog) error {
	wf, err := workload.NewWorkforce(w.Cube.config())
	if err != nil {
		return err
	}
	if w.Session != nil {
		return checkSessions(wf.Cube, phases)
	}
	return checkQueries(ctx, wf.Cube, phases)
}

func checkQueries(ctx context.Context, ref *cube.Cube, phases [][]clientLog) error {
	want := map[string]*expectation{}
	var order []string
	for _, logs := range phases {
		for _, l := range logs {
			for i, r := range l.reqs {
				if l.outs[i].ok() && want[r.MDX] == nil {
					want[r.MDX] = &expectation{}
					order = append(order, r.MDX)
				}
			}
		}
	}
	work := make(chan string)
	var wg sync.WaitGroup
	for range checkWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range work {
				g, err := olap.QueryOptions(ctx, ref, q, olap.ExecOptions{})
				e := want[q] // written by this worker only; read after Wait
				if e.err = err; err == nil {
					e.digest = resultDigest(g)
				}
			}
		}()
	}
	for _, q := range order {
		work <- q
	}
	close(work)
	wg.Wait()
	for _, logs := range phases {
		for _, l := range logs {
			for i, r := range l.reqs {
				o := &l.outs[i]
				if !o.ok() {
					continue
				}
				if e := want[r.MDX]; e.err != nil {
					o.Err = "reference: " + e.err.Error()
				} else if e.digest != o.Digest {
					o.Err = "wrong grid"
				}
			}
		}
	}
	return nil
}

// checkSessions replays each client's session stream locally, one
// goroutine per client, then compares every phase's replies by index:
// all phases issue the same generated stream.
func checkSessions(base *cube.Cube, phases [][]clientLog) error {
	want := make([][]expectation, clients)
	var wg sync.WaitGroup
	for c := range clients {
		longest := phases[0][c].reqs
		for _, logs := range phases[1:] {
			if len(logs[c].reqs) > len(longest) {
				longest = logs[c].reqs
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			want[c] = replaySessions(base, longest)
		}()
	}
	wg.Wait()
	for _, logs := range phases {
		for c, l := range logs {
			for i, r := range l.reqs {
				o := &l.outs[i]
				if !o.ok() {
					continue
				}
				e := want[c][i]
				switch {
				case e.err != nil:
					o.Err = "reference: " + e.err.Error()
				case r.Op == opQuery && e.digest != o.Digest:
					o.Err = "wrong grid"
				case (r.Op == opQuery || r.Op == opEdit) && e.rev != o.Rev:
					o.Err = fmt.Sprintf("revision %d, replay reached %d", o.Rev, e.rev)
				case r.Op == opDiff && !diffEqual(e.diff, o.Diff):
					o.Err = "wrong diff"
				}
			}
		}
	}
	return nil
}

// replaySessions applies one client's requests to local scenarios and
// returns the expected answer of each.
func replaySessions(base *cube.Cube, reqs []*Request) []expectation {
	out := make([]expectation, len(reqs))
	m := newMirror(base)
	var mat *cube.Cube
	var matOf *scenario.Scenario
	matRev := int64(-1)
	for i, r := range reqs {
		e := &out[i]
		if r.Op != opQuery {
			e.rev, e.diff, e.err = m.step(r, nil)
			continue
		}
		sc, err := m.scenario(r.Role)
		if err != nil {
			e.err = err
			continue
		}
		e.rev = sc.Revision()
		if sc != matOf || e.rev != matRev {
			if mat, e.err = sc.Materialize(); e.err != nil {
				matOf = nil
				continue
			}
			matOf, matRev = sc, e.rev
		}
		g, err := olap.Query(mat, r.MDX)
		if e.err = err; err == nil {
			e.digest = resultDigest(g)
		}
	}
	return out
}
