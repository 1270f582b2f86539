package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// clientLog is one client's issued requests and what each returned.
type clientLog struct {
	reqs []*Request
	outs []outcome
}

// runPhase drives the workload's closed-loop clients against e, each
// with its own generated request stream, until d has passed and the
// client's current session (if any) is done — or, when counts is set,
// until client c has issued counts[c] requests. With
// replayers set, every request goes through reps[c] (traced replay).
// It returns the logs and the window from the first request to the
// last reply.
func runPhase(e *env, w *workloadSpec, sch *schema, seed int64, d time.Duration, counts []int, reps []*replayer) ([]clientLog, time.Duration) {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	logs := make([]clientLog, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newGenerator(w, sch, seed, c)
			cl := &client{id: c, hc: hc, url: e.url, ids: map[string]string{}}
			l := &logs[c]
			for {
				if counts != nil && len(l.reqs) >= counts[c] || counts == nil && gen.atBoundary() && !time.Now().Before(deadline) {
					return
				}
				r := gen.Next()
				var o outcome
				if reps != nil {
					o = reps[c].do(cl, r)
				} else {
					o = cl.do(r)
				}
				l.reqs = append(l.reqs, r)
				l.outs = append(l.outs, o)
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start)
}

// tally summarizes a phase's logs.
type tally struct {
	attempted, failed int
	queryMs, editMs   []float64
	okQueries         int
	queryBytes        int
	// evaluated counts the successful queries the server evaluated
	// (cache misses); chunksRead sums the chunks their stats report.
	evaluated, chunksRead int
	firstErrors           []string
}

func tallyOf(phases ...[]clientLog) tally {
	var t tally
	for _, logs := range phases {
		for _, l := range logs {
			for i, r := range l.reqs {
				o := &l.outs[i]
				t.attempted++
				if !o.ok() {
					t.failed++
					if len(t.firstErrors) < 5 {
						t.firstErrors = append(t.firstErrors, r.Op+" "+r.MDX+": "+o.Err)
					}
					continue
				}
				switch r.Op {
				case opQuery:
					t.okQueries++
					t.queryBytes += o.Bytes
					t.queryMs = append(t.queryMs, ms(o.Latency))
					if !o.Hit {
						t.evaluated++
						t.chunksRead += o.ChunksRead
					}
				case opEdit:
					t.editMs = append(t.editMs, ms(o.Latency))
				}
			}
		}
	}
	return t
}

// writeLogs writes every request with its latency and outcome, one JSON
// object per line, for inspecting a run after the fact.
func writeLogs(path string, phases ...[]clientLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for p, logs := range phases {
		for c, l := range logs {
			for i, r := range l.reqs {
				o := l.outs[i]
				line := struct {
					Phase     int      `json:"phase"`
					Client    int      `json:"client"`
					Request   *Request `json:"request"`
					LatencyMs float64  `json:"latency_ms"`
					Hit       bool     `json:"hit,omitempty"`
					Err       string   `json:"err,omitempty"`
				}{p, c, r, ms(o.Latency), o.Hit, o.Err}
				if err := enc.Encode(line); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	return f.Close()
}
