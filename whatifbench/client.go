package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"whatifolap/internal/result"
	"whatifolap/internal/scenario"
)

// outcome is what one request returned.
type outcome struct {
	Status  int
	Latency time.Duration
	Hit     bool // served from the result cache
	Bytes   int  // response body size
	// Digest fingerprints a query's grid (see gridDigest); Rev is the
	// scenario revision a query or edit reported.
	Digest [32]byte
	Rev    int64
	Diff   []scenario.CellDiff
	// ChunksRead is the chunk count the server's query stats report.
	ChunksRead int
	// Err is set when the request failed, was refused, or returned a
	// wrong answer; such an operation counts as failed.
	Err string
}

func (o *outcome) ok() bool { return o.Err == "" }

// client is one closed-loop analyst: it sends a request, reads the
// whole reply, and only then sends the next.
type client struct {
	id  int
	hc  *http.Client
	url string
	// ids maps a session role to the server's scenario id.
	ids map[string]string
}

// gridResponse is the part of a /query or scenario-query body checked.
type gridResponse struct {
	Columns          []string     `json:"columns"`
	Rows             []string     `json:"rows"`
	Values           [][]*float64 `json:"values"`
	ScenarioRevision int64        `json:"scenario_revision"`
	Stats            struct {
		ChunksRead int `json:"chunks_read"`
	} `json:"stats"`
}

// do sends one request and decodes its reply. Latency runs from just
// before the request is sent until its body has been read.
func (c *client) do(r *Request) outcome {
	method, path, body, err := c.route(r)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return outcome{Err: err.Error()}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o := outcome{Status: resp.StatusCode, Latency: time.Since(start), Bytes: len(data), Hit: resp.Header.Get("X-Cache") == "HIT"}
	if err != nil {
		o.Err = err.Error()
		return o
	}
	if resp.StatusCode/100 != 2 {
		o.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	if err := c.decode(r, data, &o); err != nil {
		o.Err = fmt.Sprintf("decoding %s reply: %v", r.Op, err)
	}
	return o
}

// route maps a request to its HTTP method, path and body.
func (c *client) route(r *Request) (method, path string, body []byte, err error) {
	id := c.ids[r.Role]
	if r.Role != "" && r.Op != opCreate && r.Op != opFork && id == "" {
		return "", "", nil, fmt.Errorf("%s: session %d has no %s scenario", r.Op, r.Session, r.Role)
	}
	name := fmt.Sprintf("c%d-s%d-%s", c.id, r.Session, r.Role)
	switch r.Op {
	case opQuery:
		if r.Role == "" {
			body, err = json.Marshal(map[string]string{"cube": cubeName, "query": r.MDX})
			return http.MethodPost, "/query", body, err
		}
		body, err = json.Marshal(map[string]string{"query": r.MDX})
		return http.MethodPost, "/scenarios/" + id + "/query", body, err
	case opCreate:
		body, err = json.Marshal(map[string]string{"name": name, "cube": cubeName})
		return http.MethodPost, "/scenarios", body, err
	case opEdit:
		body, err = json.Marshal(map[string][]scenario.Edit{"edits": r.Edits})
		return http.MethodPost, "/scenarios/" + id + "/edit", body, err
	case opFork:
		parent := c.ids[roleParent]
		if parent == "" {
			return "", "", nil, fmt.Errorf("fork: session %d has no parent scenario", r.Session)
		}
		body, err = json.Marshal(map[string]string{"name": name})
		return http.MethodPost, "/scenarios/" + parent + "/fork", body, err
	case opDiff:
		parent := c.ids[roleParent]
		if parent == "" {
			return "", "", nil, fmt.Errorf("diff: session %d has no parent scenario", r.Session)
		}
		return http.MethodGet, "/scenarios/" + id + "/diff?against=" + parent, nil, nil
	case opDelete:
		return http.MethodDelete, "/scenarios/" + id, nil, nil
	}
	return "", "", nil, fmt.Errorf("unknown op %q", r.Op)
}

func (c *client) decode(r *Request, data []byte, o *outcome) error {
	switch r.Op {
	case opQuery:
		var g gridResponse
		if err := json.Unmarshal(data, &g); err != nil {
			return err
		}
		o.Rev = g.ScenarioRevision
		o.ChunksRead = g.Stats.ChunksRead
		o.Digest = gridDigest(g.Columns, g.Rows, func(i, j int) (float64, bool) {
			if j < len(g.Values[i]) && g.Values[i][j] != nil {
				return *g.Values[i][j], true
			}
			return 0, false
		}, len(g.Values), rowLen(g.Values))
	case opCreate, opFork, opEdit:
		var info scenario.Info
		if err := json.Unmarshal(data, &info); err != nil {
			return err
		}
		o.Rev = info.Revision
		if r.Op != opEdit {
			c.ids[r.Role] = info.ID
		}
	case opDiff:
		var d struct {
			Cells []scenario.CellDiff `json:"cells"`
		}
		if err := json.Unmarshal(data, &d); err != nil {
			return err
		}
		o.Diff = d.Cells
	case opDelete:
		delete(c.ids, r.Role)
	}
	return nil
}

func rowLen(v [][]*float64) int {
	if len(v) == 0 {
		return 0
	}
	return len(v[0])
}

// gridDigest is the SHA-256 of a grid's canonical encoding: both label
// lists, then each cell as a null flag and the value's 64 IEEE-754
// bits. Two grids have equal digests exactly when they agree bit for
// bit (up to SHA-256 collisions); NaN is the null cell, as on the wire.
func gridDigest(cols, rows []string, cell func(i, j int) (float64, bool), nRows, nCols int) [32]byte {
	h := sha256.New()
	var buf [9]byte
	writeStrings := func(ss []string) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(len(ss)))
		h.Write(buf[:8])
		for _, s := range ss {
			binary.LittleEndian.PutUint64(buf[:8], uint64(len(s)))
			h.Write(buf[:8])
			io.WriteString(h, s)
		}
	}
	writeStrings(cols)
	writeStrings(rows)
	binary.LittleEndian.PutUint64(buf[:8], uint64(nRows)<<32|uint64(nCols))
	h.Write(buf[:8])
	for i := 0; i < nRows; i++ {
		for j := 0; j < nCols; j++ {
			v, ok := cell(i, j)
			buf = [9]byte{}
			if ok && !math.IsNaN(v) {
				buf[0] = 1
				binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(v))
			}
			h.Write(buf[:])
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// resultDigest fingerprints an evaluated grid like gridDigest does a
// response.
func resultDigest(g *result.Grid) [32]byte {
	nCols := 0
	if len(g.Values) > 0 {
		nCols = len(g.Values[0])
	}
	return gridDigest(g.ColLabels, g.RowLabels, func(i, j int) (float64, bool) {
		return g.Values[i][j], true
	}, len(g.Values), nCols)
}
