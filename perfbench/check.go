package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/loadtest"
	"wilocator/internal/server"
	"wilocator/internal/traveltime"
)

// outcome is the verdict the reference replay gave one event.
type outcome struct {
	accepted, located, late, rejected bool
	arc                               float64
}

// reference is the sequential in-process replay of every event a run
// delivered, through Service.Ingest, as scenario.Run replays a scenario:
// same world, same churn actions at the same positions, a plain store.
type reference struct {
	gs      []int64   // delivered events, ascending
	out     []outcome // verdict per gs entry
	stats   api.IngestStats
	traj    map[string]api.TrajectoryResponse
	records []traveltime.Record
	posErr  sample // m, cycle-0 fixes against ground truth
	etaErr  sample // s, cycle-0 arrival predictions against ground truth
}

func (ref *reference) index(g int64) (int, bool) {
	i := sort.Search(len(ref.gs), func(i int) bool { return ref.gs[i] >= g })
	return i, i < len(ref.gs) && ref.gs[i] == g
}

// delivered lists the events the run's write requests carried (the
// planted report included: the generator claims to have sent it).
func (r *run) delivered() []int64 {
	var gs []int64
	for _, op := range r.writes {
		for p := op.P0; p < op.P1; p++ {
			gs = append(gs, p)
		}
	}
	return sortedUnique(gs)
}

// replay runs the reference. Checkpoints at every evictEvery boundary of
// scenario time mirror the live eviction sweep; in cycle 0 they also
// sample trajectories and arrival predictions for the accuracy figures,
// which therefore repeat exactly for a given seed.
func replay(w *world, gs []int64, actions []action, final time.Time) (*reference, error) {
	ref := &reference{gs: gs, out: make([]outcome, len(gs)), traj: map[string]api.TrajectoryResponse{}}
	dep := w.c.Dep
	if err := applyChurn(dep, w.c.Waves, -1); err != nil {
		return nil, err
	}
	var now time.Time
	store := traveltime.NewStore(traveltime.PaperPlan())
	svc, err := server.NewService(w.c.Dia, store, server.Config{
		FusionWindow: w.c.Spec.ScanPeriod,
		Now:          func() time.Time { return now },
		Sink: func(rec traveltime.Record) error {
			if err := store.Add(rec); err != nil {
				return err
			}
			ref.records = append(ref.records, rec)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	busIdx := map[string]int{}
	for i, b := range w.c.Buses {
		busIdx[b.ID] = i
	}
	cycle0End := w.first.Add(cyclePeriod)
	captured := map[string]api.TrajectoryResponse{}
	touched := map[string]bool{}
	checkpoint := func(at time.Time) {
		now = at
		if at.Before(cycle0End) {
			for id := range touched {
				if tr, err := svc.Trajectory(id); err == nil {
					captured[id] = tr
				}
			}
			clear(touched)
			for _, rt := range w.c.Net.Routes() {
				for s := 0; s < rt.NumStops(); s++ {
					ests, err := svc.Arrivals(rt.ID(), s)
					if err != nil {
						continue
					}
					for _, e := range ests {
						if b, ok := busIdx[e.BusID]; ok {
							truth := w.c.Buses[b].Trip.TimeAtArc(rt.StopArc(s))
							ref.etaErr = append(ref.etaErr, math.Abs(e.ETA.Sub(truth).Seconds()))
						}
					}
				}
			}
		}
		svc.EvictStale()
	}

	next := w.first.Truncate(evictEvery).Add(evictEvery)
	ai := 0
	for i, g := range gs {
		for ai < len(actions) && actions[ai].g <= g {
			if err := applyChurn(dep, w.c.Waves, actions[ai].wave); err != nil {
				return nil, err
			}
			if _, err := svc.Rebuild(context.Background()); err != nil {
				return nil, err
			}
			ai++
		}
		d := w.deliver(g)
		if !d.Before(next) {
			checkpoint(next)
			next = d.Truncate(evictEvery).Add(evictEvery)
		}
		now = d
		rep := w.report(g)
		resp, err := svc.Ingest(rep)
		o := &ref.out[i]
		switch {
		case err != nil:
			o.rejected = true
		case resp.Accepted:
			o.accepted, o.located, o.arc = true, resp.Located, resp.Arc
		case resp.Reason == api.ReasonLateScan:
			o.late = true
		}
		if g < w.n {
			touched[rep.BusID] = true
		}
	}
	checkpoint(final)
	ref.stats = svc.Stats()

	for id, tr := range captured {
		trip := w.c.Buses[busIdx[id]].Trip
		for _, f := range tr.Fixes {
			ref.posErr = append(ref.posErr, math.Abs(f.Arc-trip.ArcAt(f.Time)))
		}
	}
	ref.traj = trajectories(svc, w, gs)
	return ref, nil
}

// trajectories fetches the trajectory of every bus the events name that
// is still tracked.
func trajectories(svc *server.Service, w *world, gs []int64) map[string]api.TrajectoryResponse {
	ids := map[string]bool{}
	for _, g := range gs {
		id := w.busOf(g)
		ids[id] = true
	}
	out := map[string]api.TrajectoryResponse{}
	for id := range ids {
		if tr, err := svc.Trajectory(id); err == nil {
			out[id] = tr
		}
	}
	return out
}

// verify compares the live run with the reference and returns every
// mismatch found.
func verify(r *run, ref *reference) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	// Every acknowledgement against the reference verdicts of its events.
	for _, op := range r.writes {
		var want api.BatchResponse
		var one outcome
		for p := op.P0; p < op.P1; p++ {
			i, ok := ref.index(p)
			if !ok {
				fail("event %d missing from the reference", p)
				continue
			}
			o := ref.out[i]
			one = o
			want.Received++
			switch {
			case o.rejected:
				want.Rejected++
			case o.accepted:
				want.Accepted++
				if o.located {
					want.Located++
				}
			case o.late:
				want.LateDropped++
			}
		}
		if op.failed() {
			continue // counted as a failed operation, not a mismatch
		}
		if op.Single {
			got := op.One
			if got.Accepted != one.accepted || got.Located != one.located || got.Arc != one.arc ||
				(got.Reason == api.ReasonLateScan) != one.late {
				fail("report at position %d: live %+v, reference %+v", op.P0, got, one)
			}
			continue
		}
		got := op.Resp
		if got.Received != want.Received || got.Accepted != want.Accepted || got.Located != want.Located ||
			got.LateDropped != want.LateDropped || got.Rejected != want.Rejected {
			fail("frame [%d,%d): live received=%d accepted=%d located=%d late=%d rejected=%d, reference %d/%d/%d/%d/%d",
				op.P0, op.P1, got.Received, got.Accepted, got.Located, got.LateDropped, got.Rejected,
				want.Received, want.Accepted, want.Located, want.LateDropped, want.Rejected)
		}
	}

	live := r.svc.Stats()
	if live.Accepted != ref.stats.Accepted || live.Rejected != ref.stats.Rejected || live.LateDropped != ref.stats.LateDropped ||
		live.Flushes != ref.stats.Flushes || live.Located != ref.stats.Located || live.Registered != ref.stats.Registered ||
		live.Invalid != ref.stats.Invalid {
		fail("ingest tallies: live %+v, reference %+v", live, ref.stats)
	}

	if err := loadtest.DiffTrajectories(trajectories(r.svc, r.w, ref.gs), ref.traj); err != nil {
		fail("trajectories: %v", err)
	}

	if n := r.svc.Store().NumRecords(); n != len(r.records) {
		fail("live store holds %d records, its WAL %d", n, len(r.records))
	}
	if err := diffRecords(r.records, ref.records); err != nil {
		fail("travel-time stores: %v", err)
	}

	if r.tornReads > 0 {
		fail("%d torn reads: one (path, ETag) served two bodies, or a 200 without an ETag", r.tornReads)
	}
	for class, rc := range r.classes {
		if class != "scrape" && rc.ok > 0 && rc.nonEmpty == 0 {
			fail("every %s read came back empty (%d reads)", class, rc.ok)
		}
	}
	if len(ref.traj) == 0 {
		fail("no bus is tracked at the end of the run")
	}
	return bad
}

// diffRecords compares the stores two record logs build, with
// traveltime.Diff. Diff cannot compare a store whose bounded per-segment
// history is full (which entries survive depends on arrival order), so both
// logs are sorted into one canonical order and dealt into a series of
// stores that each take at most chunk records per segment; the k-th stores
// of the two sides must match.
func diffRecords(a, b []traveltime.Record) error {
	const chunk = 31 // one below the store's per-segment recent-ring cap
	if len(a) != len(b) {
		return fmt.Errorf("record counts differ: %d vs %d", len(a), len(b))
	}
	deal := func(recs []traveltime.Record) []*traveltime.Store {
		recs = append([]traveltime.Record(nil), recs...)
		sort.Slice(recs, func(i, j int) bool {
			x, y := recs[i], recs[j]
			if x.Seg != y.Seg {
				return x.Seg < y.Seg
			}
			if x.RouteID != y.RouteID {
				return x.RouteID < y.RouteID
			}
			if !x.Enter.Equal(y.Enter) {
				return x.Enter.Before(y.Enter)
			}
			return x.Exit.Before(y.Exit)
		})
		var stores []*traveltime.Store
		n := 0
		for i, rec := range recs {
			if i > 0 && rec.Seg != recs[i-1].Seg {
				n = 0
			}
			k := n / chunk
			for len(stores) <= k {
				stores = append(stores, traveltime.NewStore(traveltime.PaperPlan()))
			}
			_ = stores[k].Add(rec) // both logs hold only records a store accepted
			n++
		}
		return stores
	}
	sa, sb := deal(a), deal(b)
	if len(sa) != len(sb) {
		return fmt.Errorf("per-segment record counts differ")
	}
	for k := range sa {
		if err := traveltime.Diff(sa[k], sb[k], 1e-9); err != nil {
			return err
		}
	}
	return nil
}

// freshness derives the report→visible figure. A fix starts when the
// request whose report completed it was sent (the stream regularly
// delivers the delta before the POST's own ack reaches the phone, so
// timing from the ack would read zero); it is visible at the first rider
// observation of its bus at that fix or a later one. Fixes never observed
// before the run ended are left out. Only the fixes of watched requests
// count: a batch frame a read follows at once, or, with an SSE subscriber,
// a report on the streamed route. Elsewhere visibility would time how often
// riders happen to read rather than the server.
func freshness(r *run, ref *reference) (vis *series, unresolved int) {
	vis = newSeries(r.start, r.dur)
	type fix struct {
		arc        float64
		sent, done time.Time
	}
	fixes := map[string][]fix{}
	for _, op := range r.writes {
		if op.Warm || op.failed() || !op.Watched {
			continue
		}
		for g := op.P0; g < op.P1; g++ {
			i, ok := ref.index(g)
			if !ok || !ref.out[i].located {
				continue
			}
			if r.streamRoute != "" && r.w.report(g).RouteID != r.streamRoute {
				continue
			}
			id := r.w.busOf(g)
			fixes[id] = append(fixes[id], fix{arc: ref.out[i].arc, sent: op.Sent, done: op.Done})
		}
	}
	obs := map[string][]observation{}
	for _, o := range r.obs {
		if _, ok := fixes[o.Bus]; ok {
			obs[o.Bus] = append(obs[o.Bus], o)
		}
	}
	for id, fs := range fixes {
		// Fixes of one bus are in delivery order: ordinal k is fs[k].
		sort.SliceStable(fs, func(i, j int) bool { return fs[i].sent.Before(fs[j].sent) })
		byArc := map[float64][]int{}
		for k, f := range fs {
			byArc[f.arc] = append(byArc[f.arc], k)
		}
		os := obs[id]
		sort.Slice(os, func(i, j int) bool { return os[i].At.Before(os[j].At) })
		seen := -1
		k := 0
		for _, o := range os {
			cands := byArc[o.Arc]
			for j := len(cands) - 1; j >= 0; j-- {
				if !fs[cands[j]].sent.After(o.At) {
					seen = max(seen, cands[j])
					break
				}
			}
			for ; k <= seen; k++ {
				vis.add(fs[k].sent, float64(o.At.Sub(fs[k].sent))/1e6)
			}
		}
		unresolved += len(fs) - k
	}
	return vis, unresolved
}
