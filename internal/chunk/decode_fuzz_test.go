package chunk

import (
	"bytes"
	"math"
	"testing"
)

// fuzzCells lists a chunk's non-null cells as (offset, value bits)
// pairs in ascending offset order.
func fuzzCells(c *Chunk) [][2]uint64 {
	var cells [][2]uint64
	c.ForEach(func(off int, v float64) bool {
		cells = append(cells, [2]uint64{uint64(off), math.Float64bits(v)})
		return true
	})
	return cells
}

// FuzzDecodeChunk feeds arbitrary records to DecodeChunk. A record must
// either be rejected with an error or be exactly what EncodeChunk
// writes for the decoded chunk, whose cells survive EncodeChunk →
// DecodeChunk bit-identically, whose Len matches its cells, and whose
// value runs (what the engine's scan kernel consumes) are maximal and
// cover exactly those cells. The checked-in
// corpus under testdata/fuzz/FuzzDecodeChunk holds pair records of a
// dense and a sparse chunk, run records, and corrupt variants of each;
// plain `go test` replays it.
func FuzzDecodeChunk(f *testing.F) {
	dense := NewDense(16)
	for off := 0; off < 12; off++ {
		dense.Set(off, float64(off%3))
	}
	sparse := NewSparse(16)
	sparse.Set(3, 1.5)
	sparse.Set(9, math.Copysign(0, -1))
	runs := NewDense(16)
	for off := 2; off < 14; off++ {
		runs.Set(off, float64(off/5))
	}
	runs.ForceRuns()
	for _, c := range []*Chunk{dense, sparse, runs} {
		f.Add(EncodeChunk(c), uint8(16))
	}

	f.Fuzz(func(t *testing.T, rec []byte, capacity uint8) {
		c, err := DecodeChunk(rec, int(capacity))
		if err != nil {
			return
		}
		want := fuzzCells(c)
		if c.Len() != len(want) {
			t.Fatalf("decoded chunk reports %d cells, iterates %d", c.Len(), len(want))
		}
		var fromRuns [][2]uint64
		prevEnd, prevBits := -1, uint64(0)
		c.ForEachRun(func(start, runLen int, v float64) bool {
			if runLen < 1 || math.IsNaN(v) {
				t.Fatalf("bad run [%d,+%d) of %v", start, runLen, v)
			}
			if start == prevEnd && math.Float64bits(v) == prevBits {
				t.Fatalf("run at %d continues the previous run: runs are not maximal", start)
			}
			prevEnd, prevBits = start+runLen, math.Float64bits(v)
			for off := start; off < start+runLen; off++ {
				fromRuns = append(fromRuns, [2]uint64{uint64(off), math.Float64bits(v)})
			}
			return true
		})
		if !sameFuzzCells(want, fromRuns) {
			t.Fatalf("runs cover %v, cells are %v", fromRuns, want)
		}
		// The decoder accepts only what the encoder writes (an empty run
		// record re-encodes as the shorter empty pair record).
		reenc := EncodeChunk(c)
		if c.Len() > 0 && !bytes.Equal(reenc, rec) {
			t.Fatalf("accepted record %x re-encodes as %x", rec, reenc)
		}
		again, err := DecodeChunk(reenc, int(capacity))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		if got := fuzzCells(again); !sameFuzzCells(want, got) {
			t.Fatalf("round trip changed cells: %v, want %v", got, want)
		}
	})
}

func sameFuzzCells(a, b [][2]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
