package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wilocator/internal/api"
)

// The read benchmarks measure one rider GET through the handler (snapshot
// path: pointer load + pre-rendered bytes) against the pre-snapshot cold
// recompute of the same product including its JSON render. The ratio is the
// read-path speedup `make bench-check` gates at 10x via BENCH_read.json.
//
// The clock is frozen, so the published snapshot never expires mid-run and
// the GET benchmarks time the steady-state hit path — exactly what a fleet
// of rider apps polling between publishes costs.

// newReadBenchWorld builds a world with a live mid-trip fleet large enough
// that the recompute path does real per-bus work.
func newReadBenchWorld(b *testing.B, seed uint64) *world {
	b.Helper()
	w := newWorld(b, seed)
	for i := 0; i < 24; i++ {
		w.runBusHalf(b, fmt.Sprintf("bench-bus-%02d", i), t0.Add(time.Duration(i)*15*time.Second), 2, seed+uint64(i)*10)
	}
	if live := w.svc.RecomputeVehicles(""); len(live) < 16 {
		b.Fatalf("only %d live buses in the bench world", len(live))
	}
	return w
}

func benchmarkGET(b *testing.B, w *world, target string) {
	b.Helper()
	h := Handler(w.svc)
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rw := &discardRW{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rw.code = 0
		h.ServeHTTP(rw, req)
		if rw.code != http.StatusOK {
			b.Fatalf("GET %s: status %d", target, rw.code)
		}
	}
}

func BenchmarkVehiclesGET(b *testing.B) {
	w := newReadBenchWorld(b, 80)
	benchmarkGET(b, w, api.PathVehicles+"?route="+w.route.ID())
}

// BenchmarkVehiclesRecompute is the pre-snapshot cost of the same response:
// walk the bus table under per-bus locks, derive the list, render it.
func BenchmarkVehiclesRecompute(b *testing.B) {
	w := newReadBenchWorld(b, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs := w.svc.RecomputeVehicles(w.route.ID())
		if len(vs) == 0 {
			b.Fatal("no vehicles")
		}
		_ = renderVehicles(vs)
	}
}

func BenchmarkArrivalsGET(b *testing.B) {
	w := newReadBenchWorld(b, 81)
	benchmarkGET(b, w, api.PathArrivals+"?route="+w.route.ID()+"&stop=1")
}

// BenchmarkArrivalsRecompute runs the per-request prediction loop the old
// path paid on every arrivals GET, plus the render.
func BenchmarkArrivalsRecompute(b *testing.B) {
	w := newReadBenchWorld(b, 81)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ests, err := w.svc.RecomputeArrivals(w.route.ID(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if ests == nil {
			_ = nullBody
			continue
		}
		_ = marshalBody(ests)
	}
}

// BenchmarkPublishOneBus times one republish after a single bus's state
// changed — the live single-report ingest steady state, where the
// incremental publisher recomputes that bus's products and its route's
// tables and shares everything else. BenchmarkPublishFull rebuilds the same
// epoch from scratch; the ratio is what incremental publishing saves.
func BenchmarkPublishOneBus(b *testing.B) { benchmarkPublish(b, true) }

func BenchmarkPublishFull(b *testing.B) { benchmarkPublish(b, false) }

func benchmarkPublish(b *testing.B, incremental bool) {
	w := newReadBenchWorld(b, 82)
	bs := w.svc.buses.get("bench-bus-00")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A report without a new fix: the bus's last-heard time moves, so
		// its vehicle status, route list and arrival table change.
		bs.mu.Lock()
		bs.lastUpdate = bs.lastUpdate.Add(time.Millisecond)
		bs.version = w.svc.markDirty()
		bs.mu.Unlock()
		if incremental {
			w.svc.currentSnapshot()
		} else {
			w.svc.computeSnapshot(nil, w.svc.snap.dirty.Load(), 1, w.now())
		}
	}
}
