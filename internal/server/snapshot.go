package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
)

// This file is the epoch-snapshot publisher: the read side of the service.
//
// Every rider-facing read product — per-route vehicle lists, per-stop
// arrival tables, the traffic map, anomaly reports and trajectories — is
// precomputed into one immutable readSnapshot behind an atomic pointer,
// together with the pre-rendered JSON response bytes. A GET is then a
// pointer load plus a byte write: zero read-side lock acquisitions, and 100k
// subscribers watching one route cost one computation, not 100k.
//
// # Epochs and dirtiness
//
// Mutations (accepted reports, registrations, evictions, travel-time
// records) bump a dirty counter; a snapshot records the counter value it was
// computed at (asOf). A read whose loaded snapshot satisfies asOf == dirty
// serves it straight from the atomic pointer. Otherwise the reader takes the
// single-flight publish lock. Once it holds the lock it serves whatever
// snapshot is current if that one covers the dirty value the read saw when
// it began (a concurrent publisher already did the work); only otherwise
// does it recompute and store a fresh snapshot with the next epoch. A read
// therefore never returns an epoch older than a mutation that finished
// before the read began — a write acknowledged to a client is visible to
// that client's next read.
//
// # Incremental publish
//
// A publish recomputes only the products whose inputs changed since the
// previous epoch and shares the rest with it by pointer, rendered bytes
// included. Each bus carries a version (the dirty value of its last
// mutation, globally unique and monotone, so it stays safe across
// eviction and re-registration); the travel-time store carries its own.
// The per-product rules live on computeSnapshot; the equivalence tests
// hold every incremental epoch byte-equal to a full rebuild.
//
// Because two products of one snapshot were captured in a single pass, a
// request pairing Anomalies with Trajectory (or Vehicles with Arrivals) can
// no longer observe mid-update state across two lock acquisitions: all
// products of one epoch are mutually consistent.
//
// # Time-driven refresh
//
// Staleness filtering and traffic-map classification depend on the clock,
// not only on data mutations, so a snapshot also expires by age: once it is
// FusionWindow old (or the injected clock moved backwards), the next read
// republishes. Under a frozen test clock the age stays zero and reads are
// pure atomic loads.
//
// Lock ordering: snap.mu → (shard.mu → busState.mu → store.mu) during a
// publish; snap.mu → broadcaster.mu during a broadcast. No path acquires
// them in any other order.

// readStats holds the read-path counters (atomics; the GET path never locks
// for accounting). Invariant: notModified <= serves — the handler increments
// serves before notModified, and ReadStats loads notModified first.
type readStats struct {
	publishes     atomic.Uint64
	serves        atomic.Uint64
	notModified   atomic.Uint64
	streamDeltas  atomic.Uint64
	streamFrames  atomic.Uint64
	streamDropped atomic.Uint64
	streamResumes atomic.Uint64
	subscribers   atomic.Int64
}

// snapState is the publisher state: the dirty counter bumped by every
// mutation, the current snapshot, and the single-flight publish lock.
type snapState struct {
	dirty atomic.Uint64
	cur   atomic.Pointer[readSnapshot]
	mu    sync.Mutex // single-flight publisher
}

// arrivalCell is one (route, stop) entry of the precomputed arrival table.
type arrivalCell struct {
	ests []api.ArrivalEstimate
	body []byte
	err  error // a prediction error surfaced by the old per-request path
}

// tmapCell is one precomputed traffic-map response (route key "" = whole
// network).
type tmapCell struct {
	resp api.TrafficMapResponse
	body []byte
}

// readSnapshot is one immutable epoch of the read-serving state. Nothing in
// it is ever mutated after publish; readers share it freely.
type readSnapshot struct {
	epoch       uint64
	asOf        uint64 // dirty counter value the capture covers
	generatedAt time.Time
	etag        string // strong ETag, derived from the epoch

	storeVersion uint64 // traveltime.Store version loaded before the capture

	buses        []*busEntry                    // registered buses, sorted by ID
	vehicles     map[string][]api.VehicleStatus // "" = all routes
	vehiclesBody map[string][]byte
	arrivals     map[string][]arrivalCell // routeID -> stop index
	tmaps        map[string]tmapCell      // "" = all routes
	anomalies    []api.AnomalyReport      // all routes, sorted
}

// nullBody is the rendered JSON of a nil slice, matching writeJSON's
// json.Encoder output (trailing newline included).
var nullBody = []byte("null\n")

// marshalBody renders v exactly as writeJSON does (json.Encoder semantics:
// HTML escaping on, trailing newline), so pre-rendered snapshot bytes are
// byte-identical to what the old per-request encode produced.
func marshalBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		// The read products are plain data structs; an encode failure is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("server: snapshot encode: %v", err))
	}
	return buf.Bytes()
}

// markDirty records a mutation of read-visible state, pokes the broadcast
// pump when one is running, and returns the new dirty value — the version a
// mutated bus records. Called with the mutated state's lock still held, so a
// concurrent capture either reads the dirty counter before this bump (and
// will be recomputed by the next read) or blocks on the per-bus lock until
// the mutation is fully visible.
func (s *Service) markDirty() uint64 {
	v := s.snap.dirty.Add(1)
	if b := s.bcast; b != nil {
		b.poke()
	}
	return v
}

// snapshotServes reports whether snap can be served for a read at time now
// that began when the dirty counter stood at seen: it covers every mutation
// up to seen and is younger than one fusion window.
func (s *Service) snapshotServes(snap *readSnapshot, seen uint64, now time.Time) bool {
	if snap == nil || snap.asOf < seen {
		return false
	}
	age := now.Sub(snap.generatedAt)
	return age >= 0 && age < s.cfg.FusionWindow
}

// currentSnapshot returns the snapshot to serve: the published one when it
// is fresh, otherwise the result of a single-flight republish. A reader that
// finds a publish in progress waits for it and serves its result when that
// covers the read, so no read returns an epoch older than a mutation that
// completed before the read began.
func (s *Service) currentSnapshot() *readSnapshot {
	seen := s.snap.dirty.Load()
	cur := s.snap.cur.Load()
	if s.snapshotServes(cur, seen, s.cfg.Now()) {
		return cur
	}
	s.snap.mu.Lock()
	defer s.snap.mu.Unlock()
	now := s.cfg.Now()
	cur = s.snap.cur.Load()
	if s.snapshotServes(cur, seen, now) {
		return cur // a publisher we waited for already covered this read
	}
	// Load dirty before capturing: a mutation landing mid-capture leaves
	// asOf behind the counter, so the next read recomputes.
	asOf := s.snap.dirty.Load()
	next := s.computeSnapshot(cur, asOf, cur.epoch+1, now)
	s.snap.cur.Store(next)
	s.read.publishes.Add(1)
	return next
}

// PublishSnapshot republishes the read snapshot if the state is dirty and
// broadcasts the resulting epoch to the SSE subscribers (each epoch is
// broadcast exactly once, whether the pump or a caller got to it first). It
// returns the served epoch. Tests drive deterministic delta sequences
// through it; production traffic normally relies on the read path and the
// broadcast pump instead.
func (s *Service) PublishSnapshot() uint64 {
	cur := s.currentSnapshot()
	if s.bcast != nil {
		s.bcast.broadcast(cur)
	}
	return cur.epoch
}

// Epoch returns the currently served snapshot epoch.
func (s *Service) Epoch() uint64 { return s.snap.cur.Load().epoch }

// ReadStats returns the read-path counters as an invariant-consistent
// snapshot (notModified <= serves holds in the returned value).
func (s *Service) ReadStats() api.ReadStats {
	var out api.ReadStats
	out.NotModified = s.read.notModified.Load()
	out.Serves = s.read.serves.Load()
	out.StreamDeltas = s.read.streamDeltas.Load()
	out.StreamFrames = s.read.streamFrames.Load()
	out.StreamDropped = s.read.streamDropped.Load()
	out.StreamResumes = s.read.streamResumes.Load()
	out.Subscribers = s.read.subscribers.Load()
	out.Publishes = s.read.publishes.Load()
	out.Epoch = s.Epoch()
	return out
}

// busEntry is one bus's captured state plus the per-bus read products
// derived from it. Entries are immutable once published: an epoch that
// finds the bus's version unchanged shares the previous epoch's entry by
// pointer, trajectory copy and rendered products included.
type busEntry struct {
	id         string
	version    uint64 // busState.version at capture
	routeID    string
	route      *roadnet.Route
	lastUpdate time.Time
	done       bool
	hasFix     bool
	vehicle    api.VehicleStatus // valid when hasFix
	traj       []locate.TrajectoryPoint
	trajectory api.TrajectoryResponse

	// anomalies are the bus's detection rows in detection order, valid when
	// anomOK and computed at store version anomStore.
	anomalies []api.AnomalyReport
	anomStore uint64
	anomOK    bool
}

// findBus returns the entry for id in an ID-sorted entry list, or nil.
func findBus(buses []*busEntry, id string) *busEntry {
	i, ok := slices.BinarySearchFunc(buses, id, func(e *busEntry, id string) int {
		return strings.Compare(e.id, id)
	})
	if !ok {
		return nil
	}
	return buses[i]
}

// captureBuses snapshots every registered bus, sorted by bus ID. A bus
// whose version equals its entry in prev reuses that entry; only a bus that
// changed has its state and trajectory copied (per-bus lock held only for
// the copy).
func (s *Service) captureBuses(prev *readSnapshot) []*busEntry {
	var old []*busEntry
	if prev != nil {
		old = prev.buses
	}
	out := make([]*busEntry, 0, len(old))
	var fresh []*busEntry
	s.buses.forEach(func(id string, bs *busState) {
		reuse := findBus(old, id)
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		if reuse != nil && reuse.version == bs.version {
			out = append(out, reuse)
			return
		}
		e := &busEntry{
			id:         id,
			version:    bs.version,
			routeID:    bs.routeID,
			route:      bs.tracker.Route(),
			lastUpdate: bs.lastUpdate,
			done:       bs.done,
			traj:       bs.tracker.Trajectory(), // already a copy
		}
		if arc, ok := bs.tracker.Arc(); ok {
			speed, _ := bs.tracker.Speed()
			e.hasFix = true
			e.vehicle = api.VehicleStatus{
				BusID:   id,
				RouteID: bs.routeID,
				Arc:     arc,
				Pos:     e.route.PointAt(arc),
				Speed:   speed,
				Updated: bs.lastUpdate,
			}
		}
		out = append(out, e)
		fresh = append(fresh, e)
	})
	slices.SortFunc(out, func(a, b *busEntry) int { return strings.Compare(a.id, b.id) })
	// Project outside the bus locks; fresh entries are not yet shared.
	for _, e := range fresh {
		e.trajectory = s.trajectoryOf(e)
	}
	return out
}

// trajectoryOf projects a captured trajectory into Definition 6 tuples.
func (s *Service) trajectoryOf(e *busEntry) api.TrajectoryResponse {
	out := api.TrajectoryResponse{BusID: e.id, RouteID: e.routeID}
	if len(e.traj) > 0 {
		out.Fixes = make([]api.TrajectoryFix, len(e.traj))
		for i, p := range e.traj {
			ll := s.proj.ToLatLng(p.Pos)
			out.Fixes[i] = api.TrajectoryFix{Lat: ll.Lat, Lng: ll.Lng, Time: p.Time, Arc: p.Arc}
		}
	}
	return out
}

// listBuilder re-derives a vehicle list against the previous epoch's list
// for the same key. While the derived entries match prev element for
// element it allocates nothing; the first difference copies the matched
// prefix and appends from there.
type listBuilder struct {
	prev     []api.VehicleStatus
	n        int // entries matched against prev so far
	out      []api.VehicleStatus
	diverged bool
}

func (b *listBuilder) add(v api.VehicleStatus) {
	if !b.diverged {
		if b.n < len(b.prev) && b.prev[b.n] == v {
			b.n++
			return
		}
		b.diverged = true
		b.out = append(make([]api.VehicleStatus, 0, len(b.prev)+1), b.prev[:b.n]...)
	}
	b.out = append(b.out, v)
}

// result returns the derived list — nil, not an empty slice, when nothing
// matched (the wire format's convention) — and whether it is the previous
// epoch's list itself, so its rendered body can be shared too.
func (b *listBuilder) result() (vs []api.VehicleStatus, same bool) {
	switch {
	case b.diverged:
		return b.out, false
	case b.n == len(b.prev):
		return b.prev, true
	case b.n == 0:
		return nil, false
	default:
		return b.prev[:b.n:b.n], false // a prefix of an immutable list
	}
}

// arrivalsForRoute computes the arrival table of one route from its live
// vehicles: one walk of each vehicle's segments emits every stop ahead of
// it, with exactly the estimates per-stop PredictArrival gives. A stop's
// cell carries the error of the first vehicle (in list order) whose
// prediction for it failed, as the per-stop loop reported.
func (s *Service) arrivalsForRoute(route *roadnet.Route, vehicles []api.VehicleStatus) []arrivalCell {
	routeID := route.ID()
	cells := make([]arrivalCell, route.NumStops())
	for _, v := range vehicles {
		// The route comes from the predictor's own network, so the walk
		// cannot fail on an unknown route; segment errors arrive per stop.
		_ = s.pred.ForEachStopAhead(routeID, v.Arc, v.Updated, func(stopIdx int, eta time.Time, err error) {
			cell := &cells[stopIdx]
			switch {
			case cell.err != nil:
			case err != nil:
				*cell = arrivalCell{err: err}
			default:
				cell.ests = append(cell.ests, api.ArrivalEstimate{
					BusID:     v.BusID,
					RouteID:   routeID,
					StopIndex: stopIdx,
					StopName:  route.Stop(stopIdx).Name,
					ETA:       eta,
				})
			}
		})
	}
	for i := range cells {
		cell := &cells[i]
		switch {
		case cell.err != nil:
		case cell.ests == nil:
			cell.body = nullBody
		default:
			cell.body = marshalBody(cell.ests)
		}
	}
	return cells
}

// detectAnomalies runs the Fig. 4 anomaly detection over one bus's
// captured trajectory, with the δ threshold derived from the route's
// historical mean speed.
func (s *Service) detectAnomalies(e *busEntry) []api.AnomalyReport {
	route, ok := s.net.Route(e.routeID)
	if !ok {
		return nil
	}
	delta := trafficmap.DeltaFromHistory(s.routeMeanSpeed(route), s.cfg.FusionWindow, 0)
	var out []api.AnomalyReport
	for _, a := range trafficmap.DetectAnomalies(e.traj, delta, anomalyMinPoints, s.anomalyExclude[e.routeID], 30) {
		center := (a.StartArc + a.EndArc) / 2
		out = append(out, api.AnomalyReport{
			BusID:    e.id,
			RouteID:  e.routeID,
			StartArc: a.StartArc,
			EndArc:   a.EndArc,
			Start:    a.Start,
			End:      a.End,
			Pos:      route.PointAt(center),
		})
	}
	return out
}

// anomalyExcludeArcs lists the arcs where a crawl is expected, not
// anomalous: the route's stops and the ends of its signalled segments.
func anomalyExcludeArcs(net *roadnet.Network, route *roadnet.Route) []float64 {
	var exclude []float64
	for i := 0; i < route.NumStops(); i++ {
		exclude = append(exclude, route.StopArc(i))
	}
	for i := 0; i < route.NumSegments(); i++ {
		if seg, _ := net.Graph.Segment(route.SegmentID(i)); seg != nil && seg.Signal {
			exclude = append(exclude, route.SegmentEndArc(i))
		}
	}
	return exclude
}

// sortAnomalies orders anomaly rows by (route, start arc).
func sortAnomalies(out []api.AnomalyReport) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].RouteID != out[j].RouteID {
			return out[i].RouteID < out[j].RouteID
		}
		return out[i].StartArc < out[j].StartArc
	})
}

// computeSnapshot builds one immutable epoch from prev (nil: from scratch).
// Every product whose inputs did not change since prev is shared with it by
// pointer, rendered bytes included; see DESIGN.md for the reuse rules. The
// result is byte-for-byte what a full rebuild at the same instant yields.
func (s *Service) computeSnapshot(prev *readSnapshot, asOf, epoch uint64, now time.Time) *readSnapshot {
	// Load the store version before anything reads the store: a record
	// landing mid-publish leaves it behind, so the next epoch recomputes.
	storeVer := s.store.Version()
	buses := s.captureBuses(prev)
	routes := s.routes
	live := func(e *busEntry) bool { return now.Sub(e.lastUpdate) <= s.cfg.StaleAfter }

	snap := &readSnapshot{
		epoch:        epoch,
		asOf:         asOf,
		storeVersion: storeVer,
		generatedAt:  now,
		etag:         fmt.Sprintf("%q", fmt.Sprintf("wl-%d", epoch)),

		buses:        buses,
		vehicles:     make(map[string][]api.VehicleStatus, len(routes)+1),
		vehiclesBody: make(map[string][]byte, len(routes)+1),
		arrivals:     make(map[string][]arrivalCell, len(routes)),
		tmaps:        make(map[string]tmapCell, len(routes)+1),
	}
	storeSame := prev != nil && prev.storeVersion == storeVer

	// Anomaly rows: kept per bus while its version and the store version
	// hold; the staleness filter runs fresh against now.
	for i, e := range buses {
		if !live(e) {
			continue
		}
		if !e.anomOK || e.anomStore != storeVer {
			c := *e
			c.anomalies, c.anomStore, c.anomOK = s.detectAnomalies(e), storeVer, true
			e = &c
			buses[i] = e
		}
		snap.anomalies = append(snap.anomalies, e.anomalies...)
	}
	sortAnomalies(snap.anomalies)

	// Vehicle lists: re-derived every epoch (staleness moves with the
	// clock), sharing the previous slice and body when nothing changed.
	builders := make([]listBuilder, len(routes)+1) // [0] = all routes
	if prev != nil {
		builders[0].prev = prev.vehicles[""]
		for i, rt := range routes {
			builders[i+1].prev = prev.vehicles[rt.ID()]
		}
	}
	for _, e := range buses {
		if e.done || !e.hasFix || !live(e) {
			continue
		}
		builders[0].add(e.vehicle)
		if i, ok := s.routeIdx[e.routeID]; ok {
			builders[i+1].add(e.vehicle)
		}
	}
	for i := range builders {
		key := ""
		if i > 0 {
			key = routes[i-1].ID()
		}
		vs, same := builders[i].result()
		same = same && prev != nil
		snap.vehicles[key] = vs
		if same {
			snap.vehiclesBody[key] = prev.vehiclesBody[key]
		} else {
			snap.vehiclesBody[key] = renderVehicles(vs)
		}
		// Arrival tables depend on the route's vehicles and the store only.
		if i > 0 {
			if same && storeSame {
				snap.arrivals[key] = prev.arrivals[key]
			} else {
				snap.arrivals[key] = s.arrivalsForRoute(routes[i-1], vs)
			}
		}
	}

	// Traffic map: whole network plus every route, classified at the same
	// now (GeneratedAt and the classification window move with the clock,
	// so these are rebuilt every epoch). MapForRoute cannot fail here — the
	// routes come from the network.
	snap.tmaps[""] = newTmapCell(now, s.tmap.Map(now))
	for _, rt := range routes {
		statuses, err := s.tmap.MapForRoute(rt.ID(), now)
		if err != nil {
			continue
		}
		snap.tmaps[rt.ID()] = newTmapCell(now, statuses)
	}
	return snap
}

func renderVehicles(vs []api.VehicleStatus) []byte {
	if vs == nil {
		return nullBody
	}
	return marshalBody(vs)
}

func newTmapCell(now time.Time, statuses []trafficmap.SegmentStatus) tmapCell {
	resp := api.TrafficMapResponse{
		GeneratedAt: now,
		Segments:    statuses,
		Strip:       trafficmap.Render(statuses),
	}
	return tmapCell{resp: resp, body: marshalBody(resp)}
}

// maxAgeSec derives the Cache-Control max-age of a response served from
// snap at time now: the remaining validity of the snapshot's fusion window,
// in whole seconds, floored at zero.
func (snap *readSnapshot) maxAgeSec(now time.Time, window time.Duration) int {
	remain := window - now.Sub(snap.generatedAt)
	if remain <= 0 {
		return 0
	}
	return int(remain / time.Second)
}
