package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/obs"
	"wilocator/internal/scenario"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// walSyncEvery is cmd/wilocator-server's default -wal-sync-every.
const walSyncEvery = 64

// spanHeader carries the client span ID across the HTTP hop in traced runs.
const spanHeader = "X-Perfbench-Span"

// rig is one served world: the compiled scenario, a WAL-persisted service
// driven by the scenario clock, and the real HTTP handler on a loopback
// listener. It is assembled the way cmd/wilocator-server assembles a
// persistent node (metrics, request tracer, WAL with group commit).
type rig struct {
	w       *world
	dir     string
	reg     *obs.Registry
	persist *traveltime.Persister
	svc     *server.Service
	srv     *http.Server
	served  chan error
	base    string
	tr      *tracer

	compileDur, openDur time.Duration

	// clock is the scenario time the service sees (Config.Now), in unix
	// ns: the delivery time of the latest report every generator has had
	// acknowledged.
	clock     atomic.Int64
	sweepMu   sync.Mutex
	nextSweep time.Time
	sweeps    int
	ringMax   atomic.Int64 // deepest batch ring depth sampled, traced runs

	epochMu   sync.Mutex
	epochSeen map[uint64]time.Time // traced: first server-side sighting of an epoch
}

// setupRig compiles spec and brings its world up behind an HTTP listener.
// It returns once the server accepts requests: everything up to the first
// report sent is set-up time.
func setupRig(spec scenario.Spec, dir string, tr *tracer) (*rig, error) {
	r := &rig{dir: dir, tr: tr, epochSeen: map[uint64]time.Time{}}
	t0 := time.Now()
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", spec.Name, err)
	}
	r.compileDur = time.Since(t0)
	tr.add("scenario.compile", 0, t0, t0.Add(r.compileDur))
	if r.w, err = newWorld(c); err != nil {
		return nil, err
	}
	r.clock.Store(r.w.first.UnixNano())
	r.nextSweep = r.w.first.Truncate(evictEvery).Add(evictEvery)

	r.reg = obs.NewRegistry()
	store := traveltime.NewStore(traveltime.PaperPlan())
	t1 := time.Now()
	r.persist, err = traveltime.OpenPersister(filepath.Join(dir, "wal"), store, traveltime.PersistConfig{
		SyncEvery: walSyncEvery,
		OnOp:      server.WALObserver(r.reg),
	})
	if err != nil {
		return nil, fmt.Errorf("open WAL: %w", err)
	}
	r.openDur = time.Since(t1)
	tr.add("traveltime.open", 0, t1, t1.Add(r.openDur))
	r.svc, err = server.NewService(c.Dia, store, server.Config{
		FusionWindow: c.Spec.ScanPeriod,
		Now:          r.now,
		Metrics:      r.reg,
		Tracer:       obs.NewTracer(512),
		Sink:         r.sink,
		PersistStats: r.persist.Stats,
	})
	if err != nil {
		r.persist.Close()
		return nil, fmt.Errorf("start service: %w", err)
	}
	var h http.Handler = server.NewHandler(r.svc, server.HandlerConfig{GroupCommit: groupCommit{r}})
	if tr != nil {
		h = r.traced(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.svc.Close()
		r.persist.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	return r, nil
}

// close stops the server, its streams and the WAL, and removes the WAL
// directory.
func (r *rig) close() error {
	r.svc.Close() // ends SSE responses so the server can shut down
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := r.persist.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

func (r *rig) now() time.Time { return time.Unix(0, r.clock.Load()).UTC() }

// advance moves the scenario clock forward to t (never back) and runs the
// eviction sweep at every evictEvery boundary the clock crosses.
func (r *rig) advance(t time.Time) {
	for {
		cur := r.clock.Load()
		if t.UnixNano() <= cur || r.clock.CompareAndSwap(cur, t.UnixNano()) {
			break
		}
	}
	r.sweepMu.Lock()
	defer r.sweepMu.Unlock()
	if now := r.now(); !now.Before(r.nextSweep) {
		r.svc.EvictStale()
		r.sweeps++
		r.nextSweep = now.Truncate(evictEvery).Add(evictEvery)
	}
}

// sink is the service's travel-time Sink: WAL-persist the record, as a
// span of the request that produced it.
func (r *rig) sink(rec traveltime.Record) error {
	sp := r.tr.child("traveltime.record")
	err := r.persist.Record(rec)
	r.tr.finish(sp)
	return err
}

// sampleRing records the batch ring depth gauge, between requests of the
// generator (traced runs only: it renders the whole registry). The rings
// hold a frame's reports while it drains; with one uploader they are empty
// again before its next request, so only a frame still draining after its
// ack would show.
func (r *rig) sampleRing() {
	if r.tr == nil {
		return
	}
	var sb strings.Builder
	if err := r.reg.WritePrometheus(&sb); err != nil {
		return
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "wilocator_batch_ring_depth "); ok {
			if d, err := strconv.ParseFloat(v, 64); err == nil {
				for cur := r.ringMax.Load(); int64(d) > cur && !r.ringMax.CompareAndSwap(cur, int64(d)); {
					cur = r.ringMax.Load()
				}
			}
		}
	}
}

// groupCommit wraps the persister's group-commit window so its fsync is a
// span of the batch request that waits for it.
type groupCommit struct{ r *rig }

func (g groupCommit) BeginBatch() { g.r.persist.BeginBatch() }

func (g groupCommit) EndBatch() error {
	sp := g.r.tr.child("traveltime.group_commit")
	err := g.r.persist.EndBatch()
	g.r.tr.finish(sp)
	return err
}

// traced wraps the mounted handler with one span per request, linked to
// the client span named in spanHeader, and notes when each snapshot epoch
// is first seen leaving the server.
func (r *rig) traced(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
		name := serverSpanName(req)
		if name == "server.stream" {
			h.ServeHTTP(&streamWriter{ResponseWriter: w, r: r}, req)
			return
		}
		pubs := r.svc.ReadStats().Publishes
		sp := r.tr.begin(name, parent, parent)
		r.tr.bind(sp)
		h.ServeHTTP(w, req)
		r.tr.unbind()
		if name == "server.get" && r.svc.ReadStats().Publishes != pubs {
			sp.Name = "server.publish"
		}
		r.tr.finish(sp)
		if e, ok := etagEpoch(w.Header().Get("ETag")); ok {
			r.sawEpoch(e)
		}
	})
}

func serverSpanName(req *http.Request) string {
	switch req.URL.Path {
	case api.PathReportsBatch:
		return "server.batch_frame"
	case api.PathReports:
		return "server.post"
	case api.PathMetrics:
		return "obs.metrics_scrape"
	case api.PathStream:
		return "server.stream"
	}
	return "server.get"
}

func (r *rig) sawEpoch(e uint64) {
	now := time.Now()
	r.epochMu.Lock()
	if _, ok := r.epochSeen[e]; !ok {
		r.epochSeen[e] = now
	}
	r.epochMu.Unlock()
}

func (r *rig) epochAt(e uint64) (time.Time, bool) {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	t, ok := r.epochSeen[e]
	return t, ok
}

// streamWriter notes the epoch of every SSE frame the stream handler
// writes.
type streamWriter struct {
	http.ResponseWriter
	r *rig
}

func (s *streamWriter) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			if e, err := strconv.ParseUint(v, 10, 64); err == nil {
				s.r.sawEpoch(e)
			}
		}
	}
	return s.ResponseWriter.Write(p)
}

func (s *streamWriter) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// etagEpoch parses the strong `"wl-<epoch>"` validator.
func etagEpoch(etag string) (uint64, bool) {
	tag, ok := strings.CutPrefix(strings.Trim(etag, `"`), "wl-")
	if !ok {
		return 0, false
	}
	e, err := strconv.ParseUint(tag, 10, 64)
	return e, err == nil
}

// walRecords reads back every record the live WAL holds, after making all
// of them durable. The log comes from disk once the load is over, so the
// generator keeps no copy of it while the heap is sampled.
func (r *rig) walRecords() ([]traveltime.Record, error) {
	if err := r.persist.Sync(); err != nil {
		return nil, err
	}
	gen, size := r.persist.ShipState()
	buf := make([]byte, size)
	for off := int64(0); off < size; {
		n, err := r.persist.ReadDurable(gen, off, buf[off:])
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, fmt.Errorf("WAL ends at %d of %d durable bytes", off, size)
		}
		off += int64(n)
	}
	var recs []traveltime.Record
	_, rejected, _, err := traveltime.ReplayWAL(bytes.NewReader(buf), func(rec traveltime.Record) error {
		recs = append(recs, rec)
		return nil
	})
	if err == nil && rejected > 0 {
		err = fmt.Errorf("%d WAL frames rejected", rejected)
	}
	return recs, err
}
