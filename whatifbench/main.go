// Command whatifbench is the what-if serving benchmark. It drives one of
// three seeded, closed-loop workloads (dashboard, drill, scenario)
// through an in-process internal/server over loopback HTTP, checks every
// reply against a reference computed outside the timed window on a
// different path, and prints its metrics as the last line of standard
// output:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"latency_p50_ms": {"value": 310.2, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run measures a shorter untraced phase, then
// replays the same requests on a fresh server while timing the
// benchmark's own calls into each layer's public entry points, and
// prints the per-layer metrics. workloads.json holds every workload
// parameter; README.md defines each metric. Run from the repository
// root (run.sh builds the program first):
//
//	bash whatifbench/run.sh --workload dashboard --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	olap "whatifolap"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: its result and a detail object printed on
// the line before it.
type report struct {
	result runResult
	detail map[string]any
}

const (
	// measuredSetups is how many times a --trace 0 run sets the system
	// up; setup_s is their median, and the last one is measured.
	measuredSetups = 5
	// untracedShare of --seconds is the untraced phase of a --trace 1
	// run; the traced replay of the same requests takes the rest.
	untracedShare = 0.4
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: dashboard, drill or scenario")
		seed    = flag.Int64("seed", 1, "request-generator seed")
		seconds = flag.Float64("seconds", 12, "length of the measured closed loop in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		workDir = flag.String("work-dir", filepath.Join(".bench_build", "whatifbench"), "directory for spill files and span output")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	w := spec.Workloads[*name]
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(spec), ", ")))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("--seconds must be positive and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	d := time.Duration(*seconds * float64(time.Second))
	ctx := context.Background()
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(ctx, w, *seed, d, *workDir)
	} else {
		rep, err = runMeasured(ctx, w, *seed, d, *workDir)
	}
	if err != nil {
		fatal(err)
	}
	rep.detail["workload"] = w.name
	rep.detail["seed"] = *seed
	rep.detail["host"] = map[string]any{"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version()}
	printJSON(map[string]any{"detail": rep.detail})
	printJSON(rep.result)
	if !rep.result.Correct {
		os.Exit(1)
	}
}

// runMeasured is the --trace 0 run: set up measuredSetups times, run the
// closed loop on the last set-up, check the replies.
func runMeasured(ctx context.Context, w *workloadSpec, seed int64, d time.Duration, workDir string) (*report, error) {
	var e *env
	var setupS, heapMB []float64
	for i := 0; i < measuredSetups; i++ {
		runtime.GC()
		ne, err := startEnv(w, workDir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, ne.setupS)
		heapMB = append(heapMB, ne.heapMB)
		if i < measuredSetups-1 {
			ne.close()
		} else {
			e = ne
		}
	}
	sch, err := newSchema(e.cube, w.depts)
	if err != nil {
		e.close()
		return nil, err
	}
	logs, window := runPhase(e, w, sch, seed, d, nil, nil)
	endMB := liveHeapMB()
	e.close()
	if err := checkReplies(ctx, w, logs); err != nil {
		return nil, err
	}
	if err := writeLogs(logPath(workDir, w, seed, 0), logs); err != nil {
		return nil, err
	}
	t := tallyOf(logs)
	lat, edit := tailOf(t.queryMs), tailOf(t.editMs)
	return &report{
		result: runResult{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics: map[string]metric{
				"latency_p50_ms":  {median(t.queryMs), "ms"},
				"latency_tail_ms": {lat.Value, "ms"},
				"throughput_qps":  {float64(t.okQueries) / window.Seconds(), "1/s"},
				"setup_s":         {median(setupS), "s"},
				"heap_mb":         {median(heapMB), "MiB"},
			},
		},
		detail: map[string]any{
			"latency_tail": lat,
			"edit_p50_ms":  median(t.editMs),
			"edit_tail":    edit,
			"failed_frac":  float64(t.failed) / float64(max(t.attempted, 1)),
			"window_s":     window.Seconds(),
			"setup_s":      setupS,
			"heap_mb":      heapMB,
			"heap_end_mb":  endMB,
			"first_errors": t.firstErrors,
		},
	}, nil
}

// runTraced is the --trace 1 run: an untraced phase of untracedShare of
// d, then, on a fresh set-up, a traced replay of the same requests.
func runTraced(ctx context.Context, w *workloadSpec, seed int64, d time.Duration, workDir string) (*report, error) {
	runtime.GC()
	ea, err := startEnv(w, workDir)
	if err != nil {
		return nil, err
	}
	sch, err := newSchema(ea.cube, w.depts)
	if err != nil {
		ea.close()
		return nil, err
	}
	pool0, err := olap.CubeSpillStats(ea.cube)
	if err != nil {
		ea.close()
		return nil, err
	}
	logsA, _ := runPhase(ea, w, sch, seed, time.Duration(float64(d)*untracedShare), nil, nil)
	pool1, err := olap.CubeSpillStats(ea.cube)
	retainedMB := liveHeapMB() - ea.heapMB
	m := ea.srv.Metrics()
	hits, misses, rejected := m.CacheHits.Load(), m.CacheMisses.Load(), m.Overloaded.Load()
	ea.close()
	if err != nil {
		return nil, err
	}

	runtime.GC()
	eb, err := startEnv(w, workDir)
	if err != nil {
		return nil, err
	}
	counts := make([]int, clients)
	reps := make([]*replayer, clients)
	epoch := time.Now()
	for c := range counts {
		counts[c] = len(logsA[c].reqs)
		reps[c] = newReplayer(ctx, c, epoch, eb.cube)
	}
	logsB, _ := runPhase(eb, w, sch, seed, 0, counts, reps)
	eb.close()
	if err := checkReplies(ctx, w, logsA, logsB); err != nil {
		return nil, err
	}

	if err := writeLogs(logPath(workDir, w, seed, 1), logsA, logsB); err != nil {
		return nil, err
	}
	ta, tb := tallyOf(logsA), tallyOf(logsB)
	// Pool figures are the server's own over the untraced phase: the
	// replay would fault on a pool the server has just warmed.
	faults := pool1.Faults - pool0.Faults
	var c layerCounts
	for _, p := range reps {
		q := p.c
		c.queries += q.queries
		c.evaluated += q.evaluated
		c.scenarioQueries += q.scenarioQueries
		c.edits += q.edits
		c.diffs += q.diffs
		c.gridCells += q.gridCells
		c.chunksRead += q.chunksRead
		c.cellsScanned += q.cellsScanned
		c.cellsRelocated += q.cellsRelocated
		c.mergeEdges += q.mergeEdges
		c.peak += q.peak
		c.groups += q.groups
		c.layers += q.layers
	}
	self := selfTimes(reps)
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	layerMs := map[string]float64{
		"mdx.project_ms":     per(self[spanEval], c.queries),
		"mdx.parse_ms":       per(self[spanNormalize]+self[spanParse], c.queries),
		"core.plan_ms":       per(self[spanPlan], c.queries),
		"core.exec_ms":       per(self[spanExec], c.queries),
		"server.overhead_ms": per(self[spanHTTP+opQuery], c.queries),
		"scenario.view_ms":   per(self[spanView], c.queries),
	}
	metrics := map[string]metric{
		"mdx.grid_cells":          {per(float64(c.gridCells), c.evaluated), "count"},
		"core.merge_edges":        {per(float64(c.mergeEdges), c.evaluated), "count"},
		"core.pebble_peak":        {per(float64(c.peak), c.evaluated), "count"},
		"core.merge_groups":       {per(float64(c.groups), c.evaluated), "count"},
		"core.chunks_read":        {per(float64(c.chunksRead), c.evaluated), "count"},
		"core.cells_scanned":      {per(float64(c.cellsScanned), c.evaluated), "count"},
		"core.cells_relocated":    {per(float64(c.cellsRelocated), c.evaluated), "count"},
		"core.scan_amplification": {per(float64(c.cellsScanned), c.gridCells), "ratio"},
		"chunk.faults":            {per(float64(faults), ta.evaluated), "count"},
		"chunk.evictions":         {per(float64(pool1.Evictions-pool0.Evictions), ta.evaluated), "count"},
		"chunk.pool_hit_ratio":    {1 - per(float64(faults), ta.chunksRead), "ratio"},
		"chunk.store_bytes":       {float64(eb.storeBytes), "B"},
		"chunk.run_chunks":        {float64(eb.runChunks), "count"},
		"chunk.encode_s":          {median([]float64{ea.encodeS, eb.encodeS}), "s"},
		"workload.generate_s":     {median([]float64{ea.generateS, eb.generateS}), "s"},
		"scenario.apply_ms":       {per(self[spanApply], c.edits), "ms"},
		"scenario.diff_ms":        {per(self[spanDiff], c.diffs), "ms"},
		"scenario.layers":         {per(float64(c.layers), c.scenarioQueries), "count"},
		"scenario.edit_p50_ms":    {median(ta.editMs), "ms"},
		"scenario.edit_tail_ms":   {tailOf(ta.editMs).Value, "ms"},
		"server.cache_hit_ratio":  {per(float64(hits), int(hits+misses)), "ratio"},
		"server.rejected":         {float64(rejected), "count"},
		"server.response_bytes":   {per(float64(ta.queryBytes), ta.okQueries), "B"},
		"server.retained_mb":      {retainedMB, "MiB"},
	}
	if base := median(ta.queryMs); base > 0 {
		metrics["trace.overhead_frac"] = metric{median(tb.queryMs)/base - 1, "ratio"}
	} else {
		metrics["trace.overhead_frac"] = metric{0, "ratio"}
	}
	largest, largestMs := "", 0.0
	for name, v := range layerMs {
		metrics[name] = metric{v, "ms"}
		if v > largestMs {
			largest, largestMs = name, v
		}
	}
	spans := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(spans, reps); err != nil {
		return nil, err
	}
	failed := ta.failed + tb.failed
	return &report{
		result: runResult{
			Correct:   failed == 0,
			Attempted: ta.attempted + tb.attempted,
			Failed:    failed,
			Metrics:   metrics,
		},
		detail: map[string]any{
			"largest_self_time": largest,
			"query_requests":    c.queries,
			"evaluated":         c.evaluated,
			"untraced_p50_ms":   median(ta.queryMs),
			"traced_p50_ms":     median(tb.queryMs),
			"spans":             spans,
			"failed_frac":       float64(failed) / float64(max(ta.attempted+tb.attempted, 1)),
			"first_errors":      append(ta.firstErrors, tb.firstErrors...),
		},
	}, nil
}

// logPath names a run's request log under the work directory.
func logPath(workDir string, w *workloadSpec, seed int64, traced int) string {
	return filepath.Join(workDir, "logs", fmt.Sprintf("%s-seed%d-trace%d.jsonl", w.name, seed, traced))
}

func workloadNames(s *benchSpec) []string {
	var names []string
	for n := range s.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whatifbench:", err)
	os.Exit(2)
}
