package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/mobility"
	"wilocator/internal/roadnet"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
	"wilocator/internal/xrand"
)

// runBusHalf replays the first half of a simulated trip so the bus is live
// (not done) when the test queries the read products.
func (w *world) runBusHalf(t testing.TB, busID string, start time.Time, phones int, seed uint64) {
	t.Helper()
	field := mobility.DefaultCongestion(1)
	trip, err := mobility.Drive(w.net, w.route.ID(), start, mobility.DriveConfig{}, field, nil, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	group, err := sensing.NewRiderPhones(busID, phones, w.dep, sensing.PhoneConfig{ReportLoss: -1}, xrand.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	half := trip.Start().Add(trip.Duration() / 2)
	for at := trip.Start(); at.Before(half); at = at.Add(sensing.DefaultScanPeriod) {
		pos := w.route.PointAt(trip.ArcAt(at))
		for _, p := range group {
			if scan, ok := p.ScanAt(pos, at); ok {
				if _, err := w.svc.Ingest(api.Report{BusID: busID, RouteID: w.route.ID(), PhoneID: p.ID(), Scan: scan}); err != nil {
					t.Fatalf("Ingest: %v", err)
				}
			}
		}
		w.setClock(at)
	}
}

// TestSnapshotEquivalence pins the tentpole contract: at quiescence, every
// read product served from the epoch snapshot is byte-identical (as JSON) to
// what the pre-snapshot lock path computes at call time. One finished and
// one live bus cover the done/stale filters on both paths.
func TestSnapshotEquivalence(t *testing.T) {
	w := newWorld(t, 50)
	w.runBus(t, "bus-done", t0, 3, 500)
	w.runBusHalf(t, "bus-live", w.now().Add(time.Minute), 3, 510)

	eq := func(name string, snap, ref any) {
		t.Helper()
		a, b := marshalBody(snap), marshalBody(ref)
		if !bytes.Equal(a, b) {
			t.Errorf("%s diverged:\nsnapshot:  %s\nrecompute: %s", name, a, b)
		}
	}

	for _, routeID := range []string{"", w.route.ID(), "nope"} {
		eq("Vehicles("+routeID+")", w.svc.Vehicles(routeID), w.svc.RecomputeVehicles(routeID))
	}
	for stop := 0; stop < w.route.NumStops(); stop++ {
		got, gotErr := w.svc.Arrivals(w.route.ID(), stop)
		ref, refErr := w.svc.RecomputeArrivals(w.route.ID(), stop)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("Arrivals(stop %d) err = %v, recompute err = %v", stop, gotErr, refErr)
		}
		eq("Arrivals", got, ref)
	}
	for _, routeID := range []string{"", w.route.ID()} {
		got, err := w.svc.TrafficMap(routeID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeTrafficMap(routeID)
		if err != nil {
			t.Fatal(err)
		}
		eq("TrafficMap("+routeID+")", got, ref)
	}
	for _, busID := range []string{"bus-done", "bus-live"} {
		got, err := w.svc.Trajectory(busID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeTrajectory(busID)
		if err != nil {
			t.Fatal(err)
		}
		eq("Trajectory("+busID+")", got, ref)
	}
	for _, routeID := range []string{"", w.route.ID()} {
		got, err := w.svc.Anomalies(routeID)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := w.svc.RecomputeAnomalies(routeID)
		if err != nil {
			t.Fatal(err)
		}
		eq("Anomalies("+routeID+")", got, ref)
	}

	// Error cases stay errors on both paths.
	if _, err := w.svc.Arrivals("nope", 0); err == nil {
		t.Error("unknown route accepted")
	}
	if _, err := w.svc.Trajectory("ghost"); err == nil {
		t.Error("unknown bus accepted")
	}
	if _, err := w.svc.Anomalies("nope"); err == nil {
		t.Error("unknown route accepted by Anomalies")
	}
}

// TestReadsShareSnapshotEpoch is the regression test for the per-request
// recompute fix: once the snapshot is published, any number of reads — and
// in particular an Anomalies + Trajectory pair — are served from the same
// epoch without triggering further publishes; a mutation triggers exactly
// one republish for the next read.
func TestReadsShareSnapshotEpoch(t *testing.T) {
	w := newWorld(t, 51)
	w.runBusHalf(t, "bus-1", t0, 3, 520)

	w.svc.Vehicles("") // settle: publish the post-ingest snapshot
	st0 := w.svc.ReadStats()
	for i := 0; i < 10; i++ {
		w.svc.Vehicles("")
		if _, err := w.svc.Arrivals(w.route.ID(), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.TrafficMap(""); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.Anomalies(""); err != nil {
			t.Fatal(err)
		}
		if _, err := w.svc.Trajectory("bus-1"); err != nil {
			t.Fatal(err)
		}
		w.svc.ActiveBuses()
	}
	st1 := w.svc.ReadStats()
	if st1.Publishes != st0.Publishes || st1.Epoch != st0.Epoch {
		t.Errorf("60 quiescent reads republished: publishes %d -> %d, epoch %d -> %d",
			st0.Publishes, st1.Publishes, st0.Epoch, st1.Epoch)
	}

	// One mutation → exactly one republish, shared by the next reads.
	w.svc.InvalidateReadSnapshot()
	if _, err := w.svc.Anomalies(""); err != nil {
		t.Fatal(err)
	}
	if _, err := w.svc.Trajectory("bus-1"); err != nil {
		t.Fatal(err)
	}
	st2 := w.svc.ReadStats()
	if st2.Publishes != st1.Publishes+1 {
		t.Errorf("publishes %d -> %d after one invalidation, want exactly one more", st1.Publishes, st2.Publishes)
	}
	if st2.Epoch != st1.Epoch+1 {
		t.Errorf("epoch %d -> %d after one invalidation", st1.Epoch, st2.Epoch)
	}
}

// TestHTTPReadCaching drives the caching layer over the wire: strong ETags
// derived from the epoch, If-None-Match → 304 with no body, Cache-Control
// max-age from the snapshot's remaining window, and a fresh ETag after a
// mutation.
func TestHTTPReadCaching(t *testing.T) {
	w := newWorld(t, 52)
	w.runBusHalf(t, "bus-1", t0, 3, 530)
	ts := httptest.NewServer(Handler(w.svc))
	defer ts.Close()

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	body := func(resp *http.Response) []byte {
		t.Helper()
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	paths := []string{
		api.PathVehicles + "?route=" + w.route.ID(),
		api.PathArrivals + "?route=" + w.route.ID() + "&stop=1",
		api.PathTrafficMap,
	}
	for _, path := range paths {
		resp := get(path, "")
		b1 := body(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		etag := resp.Header.Get("ETag")
		if len(etag) < 2 || etag[0] != '"' || etag[:3] == `W/"` {
			t.Fatalf("GET %s: ETag %q is not a strong validator", path, etag)
		}
		cc := resp.Header.Get("Cache-Control")
		if !bytes.Contains([]byte(cc), []byte("max-age=")) {
			t.Errorf("GET %s: Cache-Control = %q, want a max-age", path, cc)
		}

		// Conditional revalidation: same ETag → 304, empty body.
		resp304 := get(path, etag)
		if b := body(resp304); resp304.StatusCode != http.StatusNotModified || len(b) != 0 {
			t.Errorf("GET %s If-None-Match: status %d, body %q", path, resp304.StatusCode, b)
		}
		if got := resp304.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
		// Wildcard and multi-value lists match; a stale ETag does not.
		if resp := get(path, "*"); resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match: * -> %d", resp.StatusCode)
		} else {
			body(resp)
		}
		if resp := get(path, `"stale", `+etag); resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match list -> %d", resp.StatusCode)
		} else {
			body(resp)
		}
		respStale := get(path, `"wl-0"`)
		if b := body(respStale); respStale.StatusCode != http.StatusOK || !bytes.Equal(b, b1) {
			t.Errorf("stale ETag revalidation: status %d", respStale.StatusCode)
		}
	}

	// A mutation rotates the ETag and the old one stops validating.
	before := get(paths[0], "")
	_ = body(before)
	w.svc.InvalidateReadSnapshot()
	after := get(paths[0], before.Header.Get("ETag"))
	_ = body(after)
	if after.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation revalidation: status %d, want 200", after.StatusCode)
	}
	if after.Header.Get("ETag") == before.Header.Get("ETag") {
		t.Error("ETag did not rotate across a mutation")
	}

	st := w.svc.ReadStats()
	if st.NotModified == 0 || st.NotModified > st.Serves {
		t.Errorf("read stats = %+v, want 0 < NotModified <= Serves", st)
	}
}

// TestVehiclesGETServesPrerenderedBytes pins that the handler byte-for-byte
// serves the snapshot's pre-rendered body (the same bytes writeJSON would
// produce for the equivalent recompute), including the nil-slice "null"
// convention for unknown routes.
func TestVehiclesGETServesPrerenderedBytes(t *testing.T) {
	w := newWorld(t, 53)
	w.runBusHalf(t, "bus-1", t0, 3, 540)
	h := Handler(w.svc)

	get := func(target string) (*httptest.ResponseRecorder, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		return rec, rec.Body.Bytes()
	}

	_, got := get(api.PathVehicles + "?route=" + w.route.ID())
	want := marshalBody(w.svc.RecomputeVehicles(w.route.ID()))
	if !bytes.Equal(got, want) {
		t.Errorf("GET vehicles body:\n%s\nrecompute render:\n%s", got, want)
	}

	rec, got := get(api.PathVehicles + "?route=ghost")
	if rec.Code != http.StatusOK || !bytes.Equal(got, nullBody) {
		t.Errorf("unknown route: status %d body %q, want 200 %q", rec.Code, got, nullBody)
	}
}

// TestIncrementalPublishMatchesFullRebuild drives a seeded random
// interleaving of ingest (fix flushes, segment crossings and the travel-time
// records they emit), trip ends with re-registration on a random route,
// eviction, out-of-band store records, and clock moves past FusionWindow and
// StaleAfter (and briefly backwards). After every step a fresh epoch is
// published and every product and body must equal the full rebuild of the
// Recompute* reference. The run must also exercise reuse, or it proves
// nothing about the incremental rules.
func TestIncrementalPublishMatchesFullRebuild(t *testing.T) {
	net, err := roadnet.BuildRadialCity(roadnet.RadialSpec{Spokes: 4, Rings: 3, Block: 220}, 3)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := wifi.Deploy(net, wifi.DefaultDeploySpec(), xrand.New(61))
	if err != nil {
		t.Fatal(err)
	}
	dia, err := svd.Build(net, dep, svd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	store := traveltime.NewStore(traveltime.PaperPlan())
	var clock atomic.Int64
	clock.Store(t0.UnixNano())
	now := func() time.Time { return time.Unix(0, clock.Load()) }
	setClock := func(at time.Time) { clock.Store(at.UnixNano()) }
	svc, err := NewService(dia, store, Config{Now: now})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rng := xrand.New(62)
	routes := net.Routes()
	type bus struct {
		id     string
		route  *roadnet.Route
		trip   *mobility.Trip
		phones []*sensing.Phone
		at     time.Time
	}
	// A slow zone mid-route on every route gives the anomaly detector
	// crawl sites to report.
	var incidents []mobility.Incident
	for _, rt := range routes {
		seg := rt.SegmentID(rt.NumSegments() / 2)
		incidents = append(incidents, mobility.Incident{Seg: seg, Start: t0, End: t0.Add(24 * time.Hour),
			SlowFactor: 20, ArcStart: 40, ArcEnd: 140})
	}
	start := func(b *bus, route *roadnet.Route, at time.Time) {
		b.route = route
		trip, err := mobility.Drive(net, b.route.ID(), at, mobility.DriveConfig{},
			mobility.DefaultCongestion(1), incidents, xrand.New(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		phones, err := sensing.NewRiderPhones(b.id, 2, dep, sensing.PhoneConfig{ReportLoss: -1}, xrand.New(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		b.trip, b.phones, b.at = trip, phones, trip.Start()
	}
	buses := make([]*bus, 6)
	for i := range buses {
		buses[i] = &bus{id: fmt.Sprintf("bus-%d", i)}
		start(buses[i], routes[i%len(routes)], t0.Add(time.Duration(i)*40*time.Second))
	}

	var prev *readSnapshot
	var sharedEntries, sharedTables, recomputedTables, liveVehicles, anomalies int
	for step := 0; step < 600; step++ {
		op := rng.Intn(40)
		switch {
		case op < 32: // one scan cycle of one bus
			b := buses[rng.Intn(len(buses))]
			switch {
			case b.trip.Done(b.at):
				// The trip ended. Start the next one past StaleAfter, so the
				// bus re-registers even if its tracker missed the terminus,
				// on any route.
				start(b, routes[rng.Intn(len(routes))], maxTime(now(), b.at).Add(6*time.Minute))
			case now().Sub(b.at) > 2*time.Minute: // left behind by a clock jump
				start(b, b.route, now())
			}
			pos := b.route.PointAt(b.trip.ArcAt(b.at))
			for _, p := range b.phones {
				if scan, ok := p.ScanAt(pos, b.at); ok {
					if _, err := svc.Ingest(api.Report{BusID: b.id, RouteID: b.route.ID(), PhoneID: p.ID(), Scan: scan}); err != nil {
						t.Fatalf("step %d: ingest: %v", step, err)
					}
				}
			}
			setClock(maxTime(now(), b.at))
			b.at = b.at.Add(sensing.DefaultScanPeriod)
		case op < 35: // clock moves up to two fusion windows
			setClock(now().Add(time.Duration(rng.Intn(21)) * time.Second))
		case op < 36: // a quiet spell: everything goes stale
			setClock(now().Add(6 * time.Minute))
		case op < 37:
			svc.EvictStale()
		case op < 39: // out-of-band records over a whole route at one speed
			// Crawling or racing history swings the route's mean speed, so
			// the anomaly threshold δ, across the slow zone's pace.
			rt := routes[rng.Intn(len(routes))]
			speed := []float64{1.5, 6, 30}[rng.Intn(3)]
			enter := now().Add(-10 * time.Minute)
			for i := 0; i < rt.NumSegments(); i++ {
				secs := (rt.SegmentEndArc(i) - rt.SegmentStartArc(i)) / speed
				rec := traveltime.Record{Seg: rt.SegmentID(i), RouteID: rt.ID(),
					Enter: enter, Exit: enter.Add(time.Duration(secs * float64(time.Second)))}
				for k := 0; k < 3; k++ {
					if err := store.Add(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			svc.InvalidateReadSnapshot()
		default: // the clock steps back
			setClock(now().Add(-3 * time.Second))
		}

		// Publish at the current instant, then compare with a full rebuild.
		svc.InvalidateReadSnapshot()
		snap := svc.currentSnapshot()
		got, want := snapshotProducts(snap), svc.referenceProducts()
		for key, w := range want {
			if g, ok := got[key]; !ok || !bytes.Equal(g, w) {
				t.Fatalf("step %d (op %d): %s diverged from the full rebuild:\nincremental: %s\nrebuild:     %s", step, op, key, g, w)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Fatalf("step %d: snapshot serves %s, the full rebuild has no such product", step, key)
			}
		}

		if prev != nil {
			for _, e := range snap.buses {
				if findBus(prev.buses, e.id) == e {
					sharedEntries++
				}
			}
			for _, rt := range routes {
				cells, old := snap.arrivals[rt.ID()], prev.arrivals[rt.ID()]
				if len(cells) > 0 && len(old) > 0 && &cells[0] == &old[0] {
					sharedTables++
				} else {
					recomputedTables++
				}
			}
		}
		liveVehicles += len(snap.vehicles[""])
		anomalies += len(snap.anomalies)
		prev = snap
	}
	t.Logf("%d shared bus entries, %d shared / %d recomputed arrival tables, %d live-vehicle and %d anomaly rows, %d records",
		sharedEntries, sharedTables, recomputedTables, liveVehicles, anomalies, store.NumRecords())
	if sharedEntries == 0 || sharedTables == 0 || recomputedTables == 0 {
		t.Errorf("interleaving exercised too little: %d shared bus entries, %d shared and %d recomputed arrival tables",
			sharedEntries, sharedTables, recomputedTables)
	}
	if store.NumRecords() == 0 {
		t.Error("no travel-time records: the store-version rule went unexercised")
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// TestReadAfterWriteSeesMutation is the regression test for stale reads
// after an acknowledged write: a reader arriving while another publish holds
// the lock must not serve the epoch from before a mutation that completed
// before the read began. Holding snap.mu stands in for the in-flight
// publisher; the read may only return once the lock is free, and what it
// returns must cover the mutation.
func TestReadAfterWriteSeesMutation(t *testing.T) {
	w := newWorld(t, 54)
	w.runBusHalf(t, "bus-1", t0, 3, 550)
	before := w.svc.currentSnapshot()

	w.svc.snap.mu.Lock()
	w.svc.InvalidateReadSnapshot() // the acknowledged mutation
	mutated := w.svc.snap.dirty.Load()
	got := make(chan *readSnapshot, 1)
	go func() { got <- w.svc.currentSnapshot() }()
	var early *readSnapshot
	select {
	case early = <-got:
	case <-time.After(50 * time.Millisecond):
	}
	w.svc.snap.mu.Unlock()
	if early != nil {
		t.Fatalf("read returned epoch %d (asOf %d) while a publish was in flight; the mutation is at %d",
			early.epoch, early.asOf, mutated)
	}
	snap := <-got
	if snap.asOf < mutated || snap.epoch <= before.epoch {
		t.Errorf("read after the write served epoch %d (asOf %d), want a newer epoch covering dirty value %d",
			snap.epoch, snap.asOf, mutated)
	}
}
