package main

import (
	"encoding/json"
	"strings"
	"testing"

	"whatifolap/internal/cube"
	"whatifolap/internal/mdx"
	"whatifolap/internal/workload"
)

// stream returns the first n requests of a client's stream, encoded.
func stream(t *testing.T, w *workloadSpec, sch *schema, seed int64, client, n int) []string {
	t.Helper()
	g := newGenerator(w, sch, seed, client)
	out := make([]string, n)
	for i := range out {
		b, err := json.Marshal(g.Next())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

// TestGeneratorSeeded pins that the request sequence is a pure function
// of (workload, seed, client): one seed generates the same sequence
// twice, and another seed generates a different one.
func TestGeneratorSeeded(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for name, w := range spec.Workloads {
		wf, err := workload.NewWorkforce(w.Cube.config())
		if err != nil {
			t.Fatal(err)
		}
		sch := mustSchema(t, wf.Cube)
		for client := 0; client < clients; client++ {
			a := stream(t, w, sch, 7, client, n)
			b := stream(t, w, mustSchema(t, wf.Cube), 7, client, n)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s client %d: seed 7 request %d differs between generations:\n%s\n%s", name, client, i, a[i], b[i])
				}
			}
			c := stream(t, w, sch, 8, client, n)
			same := 0
			for i := range a {
				if a[i] == c[i] {
					same++
				}
			}
			if same == n {
				t.Fatalf("%s client %d: seeds 7 and 8 generate the same %d requests", name, client, n)
			}
		}
		if a, b := stream(t, w, sch, 7, 0, n), stream(t, w, sch, 7, 1, n); a[len(a)-1] == b[len(b)-1] && a[0] == b[0] {
			t.Fatalf("%s: clients 0 and 1 generate the same stream", name)
		}
	}
}

// TestGeneratorShares checks the stream against workloads.json: every
// query parses, repeats come RepeatsPerBlock to a block and point back
// at an earlier request, and scenario sessions keep their shape.
func TestGeneratorShares(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range spec.Workloads {
		wf, err := workload.NewWorkforce(w.Cube.config())
		if err != nil {
			t.Fatal(err)
		}
		g := newGenerator(w, mustSchema(t, wf.Cube), 3, 0)
		repeats, queries, edits := 0, 0, 0
		const n = 400
		for i := 0; i < n; i++ {
			r := g.Next()
			if r.Index != i {
				t.Fatalf("%s: request %d has index %d", name, i, r.Index)
			}
			switch r.Op {
			case opQuery:
				queries++
				if _, err := mdx.Parse(r.MDX); err != nil {
					t.Fatalf("%s: request %d does not parse: %v\n%s", name, i, err, r.MDX)
				}
				if r.Spec == nil || len(r.Spec.Perspectives) < minPerspectives || len(r.Spec.Perspectives) > maxPerspectives {
					t.Fatalf("%s: request %d has a bad engine spec %+v", name, i, r.Spec)
				}
				if r.Repeat >= 0 {
					repeats++
					if r.Repeat >= i {
						t.Fatalf("%s: request %d repeats a later request %d", name, i, r.Repeat)
					}
				}
			case opEdit:
				edits++
				if len(r.Edits) < w.Session.CellsPerBatch {
					t.Fatalf("%s: edit batch %d has %d edits", name, i, len(r.Edits))
				}
			}
		}
		if w.Session == nil {
			// The first block has no earlier request to repeat at
			// position 0, so allow one short block.
			if want := n / block * w.RepeatsPerBlock; repeats < want-1 || repeats > want {
				t.Errorf("%s: %d repeats in %d requests, want %d", name, repeats, n, want)
			}
			continue
		}
		// One session: create, fork, K batches each followed by its
		// queries, a diff and two deletes; validity moves ride along
		// every ValidityEvery batches.
		s := w.Session
		ops := g.newSession()
		if want := 1 + 1 + s.Batches*(1+s.QueriesPerBatch) + 3; len(ops) != want {
			t.Errorf("%s: session has %d ops, want %d", name, len(ops), want)
		}
		batch := 0
		for i, r := range ops {
			if r.Op != opEdit {
				continue
			}
			batch++
			for j := 1; j <= s.QueriesPerBatch; j++ {
				if ops[i+j].Op != opQuery || ops[i+j].Role != r.Role {
					t.Fatalf("%s: batch %d is not followed by %d queries on the %s", name, batch, s.QueriesPerBatch, r.Role)
				}
			}
			if want := s.CellsPerBatch + btoi(batch%s.ValidityEvery == 0); len(r.Edits) != want {
				t.Errorf("%s: batch %d has %d edits, want %d", name, batch, len(r.Edits), want)
			}
			want := roleParent
			if batch > s.ForkAfter {
				want = roleFork
			}
			if r.Role != want {
				t.Errorf("%s: batch %d edits the %s, want the %s", name, batch, r.Role, want)
			}
		}
		if queries == 0 || edits == 0 {
			t.Errorf("%s: %d queries and %d edit batches in %d requests", name, queries, edits, n)
		}
	}
}

// TestGeneratorDepartments pins that every seed queries the listed
// departments in the same rotation, so runs on different seeds measure
// the same departments in the same shares.
func TestGeneratorDepartments(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := spec.Workloads["drill"]
	wf, err := workload.NewWorkforce(w.Cube.config())
	if err != nil {
		t.Fatal(err)
	}
	sch := mustSchema(t, wf.Cube)
	for client := 0; client < clients; client++ {
		for _, seed := range []int64{7, 8} {
			g := newGenerator(w, sch, seed, client)
			for i := 0; i < 30; i++ {
				want := spec.Departments[(client+i)%len(spec.Departments)]
				if r := g.Next(); !strings.Contains(r.MDX, "[Department].["+want+"].Children") {
					t.Fatalf("seed %d client %d: request %d is not on %s:\n%s", seed, client, i, want, r.MDX)
				}
			}
		}
	}
	if _, err := newSchema(wf.Cube, []string{"NoSuchDept"}); err == nil {
		t.Fatal("an unknown listed department was accepted")
	}
}

func mustSchema(t *testing.T, c *cube.Cube) *schema {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sch, err := newSchema(c, spec.Departments)
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
