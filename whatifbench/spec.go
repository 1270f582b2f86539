package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"whatifolap/internal/perspective"
	"whatifolap/internal/workload"
)

//go:embed workloads.json
var specJSON []byte

// Parameters every workload shares. The cube is always the repository's
// default workforce shape (workload.ConfigDefault) and always gets the
// run-encoding sweep cmd/whatifd runs at start-up (-rle, on by default).
const (
	// clients is the number of closed-loop analysts, one per core of
	// the recorded host.
	clients = 2
	// block is the repeat unit: every block of fresh requests carries
	// RepeatsPerBlock repeats of an earlier request.
	block = 10
	// minPerspectives and maxPerspectives bound the number of
	// perspective months of a query, inclusive.
	minPerspectives, maxPerspectives = 1, 4
)

// modes is the mode deck: each mode is drawn once per pass.
var modes = []perspective.Mode{perspective.NonVisual, perspective.Visual}

// benchSpec is workloads.json: the parameters every workload generates
// its cube and requests from.
type benchSpec struct {
	// Departments are the departments queries and edits are about, in
	// the fixed order the generator rotates through. The list is short
	// so every run makes whole passes over it, and it does not depend on
	// the seed, so every run measures the same departments.
	Departments []string                 `json:"departments"`
	Workloads   map[string]*workloadSpec `json:"workloads"`
}

// workloadSpec parameterizes one workload.
type workloadSpec struct {
	Cube cubeSpec `json:"cube"`
	// Families are the query shapes, each drawn Share times per deck.
	Families []familySpec `json:"families"`
	// RepeatsPerBlock of every block requests repeat an earlier request
	// of the same client (the result-cache path).
	RepeatsPerBlock int `json:"repeats_per_block"`
	// Semantics is a deck: each entry is drawn once per pass.
	Semantics []string `json:"semantics"`
	// Session, when set, makes the workload a scenario-session workload.
	Session *sessionSpec `json:"session"`

	name  string
	depts []string
	sems  []perspective.Semantics
}

// cubeSpec describes the served cube and its storage set-up.
type cubeSpec struct {
	FlatMonths bool  `json:"flat_months"`
	ChunkDims  []int `json:"chunk_dims"`
	// SpillFraction > 0 serves the cube behind the buffer pool with a
	// budget of that share of its resident bytes.
	SpillFraction float64 `json:"spill_fraction"`
}

type familySpec struct {
	Name  string `json:"name"`
	Share int    `json:"share"`
}

// sessionSpec shapes one scenario session: create, Batches edit
// batches (the fork is taken after ForkAfter of them, and later batches
// edit the fork), a diff of the fork against its parent, then deletes.
type sessionSpec struct {
	Batches         int `json:"batches"`
	ForkAfter       int `json:"fork_after"`
	QueriesPerBatch int `json:"queries_per_batch"`
	CellsPerBatch   int `json:"cells_per_batch"`
	ValidityEvery   int `json:"validity_every"`
}

// loadSpec parses and validates the embedded workloads.json.
func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	if len(s.Departments) == 0 {
		return nil, fmt.Errorf("workloads.json: no departments")
	}
	for name, w := range s.Workloads {
		w.name = name
		w.depts = s.Departments
		if err := w.validate(); err != nil {
			return nil, fmt.Errorf("workloads.json: workload %s: %w", name, err)
		}
	}
	return &s, nil
}

func (w *workloadSpec) validate() error {
	if len(w.Families) == 0 || w.RepeatsPerBlock < 0 || w.RepeatsPerBlock >= block {
		return fmt.Errorf("bad families or repeat share")
	}
	for _, f := range w.Families {
		if _, ok := families[f.Name]; !ok || f.Share < 1 {
			return fmt.Errorf("bad family %q", f.Name)
		}
	}
	for _, name := range w.Semantics {
		sem, ok := semanticsByName[name]
		if !ok {
			return fmt.Errorf("unknown semantics %q", name)
		}
		w.sems = append(w.sems, sem)
	}
	if len(w.sems) == 0 {
		return fmt.Errorf("empty semantics deck")
	}
	if s := w.Session; s != nil {
		if s.ForkAfter < 1 || s.ForkAfter >= s.Batches || s.QueriesPerBatch < 1 ||
			s.CellsPerBatch < 1 || s.ValidityEvery < 1 {
			return fmt.Errorf("bad session %+v", *s)
		}
	}
	if w.Cube.SpillFraction < 0 || w.Cube.SpillFraction >= 1 {
		return fmt.Errorf("bad cube %+v", w.Cube)
	}
	return nil
}

// config returns the workforce generator configuration of the cube.
func (c cubeSpec) config() workload.WorkforceConfig {
	cfg := workload.ConfigDefault()
	cfg.FlatMonths = c.FlatMonths
	cfg.ChunkDims = c.ChunkDims
	return cfg
}

// semanticsByName maps the MDX semantics keywords to the engine's
// constants (perspective.Semantics.String is the inverse).
var semanticsByName = map[string]perspective.Semantics{
	perspective.Static.String():           perspective.Static,
	perspective.Forward.String():          perspective.Forward,
	perspective.Backward.String():         perspective.Backward,
	perspective.ExtendedForward.String():  perspective.ExtendedForward,
	perspective.ExtendedBackward.String(): perspective.ExtendedBackward,
}
