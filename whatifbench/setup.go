package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	olap "whatifolap"
	"whatifolap/internal/cube"
	"whatifolap/internal/server"
	"whatifolap/internal/workload"
)

// cubeName is the catalog name the served cube is registered under.
const cubeName = "workforce"

// env is one set-up system under test: the served cube and the server
// listening on loopback.
type env struct {
	cube  *cube.Cube
	srv   *server.Server
	hs    *http.Server
	url   string
	done  chan struct{}
	spill string // spill directory, removed on close

	setupS, generateS, encodeS float64
	runChunks, storeBytes      int
	// heapMB is the live heap once set up: the served cube and an idle
	// server.
	heapMB float64
}

// daemonConfig is the server.Config cmd/whatifd builds from its flag
// defaults (-workers 0, -scan-workers 0, -queue 0, -cache-bytes,
// -timeout 30s, -slowlog, zero observability flags). The daemon's
// stderr event sink is left out: the server keeps its own event ring.
func daemonConfig() server.Config {
	return server.Config{
		CacheBytes:     server.DefaultCacheBytes,
		DefaultTimeout: 30 * time.Second,
		SlowQueryMs:    server.DefaultSlowQueryMs,
	}
}

// startEnv runs the timed set-up: cube generation, the run-encoding
// sweep cmd/whatifd runs at start-up, spill attach and server start.
// setupS covers exactly these.
func startEnv(w *workloadSpec, workDir string) (*env, error) {
	e := &env{done: make(chan struct{})}
	start := time.Now()
	wf, err := workload.NewWorkforce(w.Cube.config())
	if err != nil {
		return nil, err
	}
	e.cube = wf.Cube
	e.generateS = time.Since(start).Seconds()

	encStart := time.Now()
	if e.runChunks, err = olap.EncodeRuns(e.cube); err != nil {
		return nil, err
	}
	e.encodeS = time.Since(encStart).Seconds()
	ss, err := olap.CubeSpillStats(e.cube)
	if err != nil {
		return nil, err
	}
	e.storeBytes = ss.ResidentBytes

	if w.Cube.SpillFraction > 0 {
		if e.spill, err = os.MkdirTemp(workDir, "spill-"); err != nil {
			return nil, err
		}
		budget := int(float64(e.storeBytes) * w.Cube.SpillFraction)
		if err := olap.SpillTo(e.cube, filepath.Join(e.spill, "chunks"), budget); err != nil {
			e.close()
			return nil, err
		}
	}

	catalog := server.NewCatalog()
	if err := catalog.Register(cubeName, e.cube); err != nil {
		e.close()
		return nil, err
	}
	e.srv = server.New(catalog, daemonConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.done)
		if err := e.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "whatifbench: serve:", err)
		}
	}()
	e.setupS = time.Since(start).Seconds()
	e.heapMB = liveHeapMB()
	return e, nil
}

// liveHeapMB is the Go heap in use after forced collections, in MiB.
// It collects twice: the first GC only moves sync.Pool contents to the
// victim cache, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// close stops the listener and the server, waits for the serve loop to
// return, and removes the spill directory.
func (e *env) close() {
	if e.hs != nil {
		_ = e.hs.Close() // the listener error is already reported by Serve
		<-e.done
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.spill != "" {
		_ = os.RemoveAll(e.spill) // scratch space; a leftover is harmless
	}
}
