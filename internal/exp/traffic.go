package exp

import (
	"fmt"
	"time"

	"wilocator/internal/eval"
	"wilocator/internal/locate"
	"wilocator/internal/mobility"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
)

// Fig11Result reproduces the Fig. 11 traffic-map comparison: WiLocator marks
// every segment and flags the injected anomaly; the agency-style map leaves
// unconfirmed segments.
type Fig11Result struct {
	// WiLocatorStrip and AgencyStrip are the per-route renderings of the
	// corridor route's map.
	WiLocatorStrip, AgencyStrip string
	// WiLocatorCoverage and AgencyCoverage are marked-segment fractions.
	WiLocatorCoverage, AgencyCoverage float64
	// IncidentSeg is the segment carrying the injected incident;
	// IncidentFlagged is true when WiLocator marks it slow or very slow.
	IncidentSeg     roadnet.SegmentID
	IncidentZ       float64
	IncidentFlagged bool
	// Anomalies are the sites detected on a tracked bus's trajectory;
	// AnomalyNearIncident is true when one lies within the incident zone.
	Anomalies           []trafficmap.Anomaly
	AnomalyNearIncident bool
}

// String renders the comparison.
func (r Fig11Result) String() string {
	t := eval.NewTable("Fig. 11: rush-hour traffic maps (one glyph per corridor segment; '?' = unconfirmed)",
		"system", "coverage", "map")
	t.AddRow("WiLocator", fmt.Sprintf("%.0f%%", r.WiLocatorCoverage*100), r.WiLocatorStrip)
	t.AddRow("Agency", fmt.Sprintf("%.0f%%", r.AgencyCoverage*100), r.AgencyStrip)
	s := t.String()
	s += fmt.Sprintf("incident on segment %d: flagged=%v z=%.2f; trajectory anomalies=%d nearIncident=%v\n",
		r.IncidentSeg, r.IncidentFlagged, r.IncidentZ, len(r.Anomalies), r.AnomalyNearIncident)
	return s
}

// Fig11TrafficMap trains the store, injects a rush-hour incident on a
// corridor segment of the Vancouver network, replays the fleet of the
// evaluation morning chronologically, and compares the WiLocator and
// agency-style traffic maps at the height of the incident. It also runs the
// full crowd-sensing pipeline for one bus through the incident and feeds its
// trajectory to the anomaly detector (Fig. 6).
func Fig11TrafficMap(spec ScenarioSpec, trainDays int) (Fig11Result, error) {
	if trainDays <= 0 {
		trainDays = 8
	}
	sc, err := NewVancouver(spec)
	if err != nil {
		return Fig11Result{}, err
	}
	store, err := TrainStore(sc, trainDays, traveltime.PaperPlan())
	if err != nil {
		return Fig11Result{}, err
	}

	// Incident: a third of the way down route 9's corridor, spanning the
	// whole morning rush, crawling traffic.
	route, _ := sc.Net.Route(roadnet.Route9)
	segIdx := route.NumSegments() / 3
	segID := route.SegmentID(segIdx)
	seg, _ := sc.Net.Graph.Segment(segID)
	evalDay := WeekdayServiceDays(trainDays + 1)[trainDays]
	incident := mobility.Incident{
		Seg:        segID,
		Start:      evalDay.Add(8*time.Hour + 15*time.Minute),
		End:        evalDay.Add(10*time.Hour + 30*time.Minute),
		SlowFactor: 6,
		ArcStart:   0,
		ArcEnd:     seg.Length(),
	}

	// Replay the evaluation morning: stream traversals completed by 9:15.
	// WiLocator hears every crowd-sensed bus; the agency only its
	// AVL-equipped fraction of the fleet (the cost-driven gap the paper's
	// introduction describes), which is what leaves its map with
	// unconfirmed segments.
	now := evalDay.Add(9*time.Hour + 15*time.Minute)
	_, recs, err := FleetDay(sc, evalDay, []mobility.Incident{incident}, 777)
	if err != nil {
		return Fig11Result{}, err
	}
	const avlFraction = 5 // one in five vehicles carries an AVL unit
	agencyStore, err := TrainStore(sc, trainDays, traveltime.PaperPlan())
	if err != nil {
		return Fig11Result{}, err
	}
	for _, r := range recs {
		if r.Exit.After(now) {
			break
		}
		rec := traveltime.Record{Seg: r.Seg, RouteID: r.RouteID, Enter: r.Enter, Exit: r.Exit}
		if err := store.Add(rec); err != nil {
			return Fig11Result{}, err
		}
		if r.Trip%avlFraction == 0 {
			if err := agencyStore.Add(rec); err != nil {
				return Fig11Result{}, err
			}
		}
	}

	wil, err := trafficmap.NewGenerator(sc.Net, store, trafficmap.Config{})
	if err != nil {
		return Fig11Result{}, err
	}
	ag, err := trafficmap.NewAgencyStyle(sc.Net, agencyStore, trafficmap.Config{})
	if err != nil {
		return Fig11Result{}, err
	}
	wm, err := wil.MapForRoute(roadnet.Route9, now)
	if err != nil {
		return Fig11Result{}, err
	}
	am, err := ag.MapForRoute(roadnet.Route9, now)
	if err != nil {
		return Fig11Result{}, err
	}
	out := Fig11Result{
		WiLocatorStrip:    trafficmap.Render(wm),
		AgencyStrip:       trafficmap.Render(am),
		WiLocatorCoverage: trafficmap.Coverage(wm),
		AgencyCoverage:    trafficmap.Coverage(am),
		IncidentSeg:       segID,
	}
	st := wil.Classify(segID, now)
	out.IncidentZ = st.Z
	out.IncidentFlagged = st.Condition == trafficmap.Slow || st.Condition == trafficmap.VerySlow

	// Track one bus through the incident with the full pipeline and detect
	// the anomaly site from its trajectory.
	trip, err := sc.DriveTrip(roadnet.Route9, evalDay.Add(8*time.Hour+35*time.Minute), []mobility.Incident{incident}, 4242)
	if err != nil {
		return Fig11Result{}, err
	}
	samples, err := sc.ScanTrip(roadnet.Route9, "anomaly-bus", trip)
	if err != nil {
		return Fig11Result{}, err
	}
	pos, err := locate.NewPositioner(sc.Dia, sc.Dia.Order())
	if err != nil {
		return Fig11Result{}, err
	}
	tracker, err := locate.NewTracker(pos, roadnet.Route9, locate.TrackerConfig{})
	if err != nil {
		return Fig11Result{}, err
	}
	for _, s := range samples {
		// Scans that yield no fix are simply skipped, as on the live server.
		_, _, _ = tracker.Observe(s.Scan)
	}
	// Exclusion list: stops and signalled intersections explain expected
	// dwells (Section V-A.4).
	var exclude []float64
	for _, stop := range route.Stops() {
		exclude = append(exclude, stop.Arc)
	}
	for i := 0; i < route.NumSegments(); i++ {
		sid := route.SegmentID(i)
		if s, _ := sc.Net.Graph.Segment(sid); s != nil && s.Signal {
			exclude = append(exclude, route.SegmentEndArc(i))
		}
	}
	// Delta from the historical per-scan road distance at rush speeds.
	delta := trafficmap.DeltaFromHistory(6.5, 10*time.Second, 0.35)
	out.Anomalies = trafficmap.DetectAnomalies(tracker.Trajectory(), delta, 4, exclude, 30)
	incStart := route.SegmentStartArc(segIdx)
	incEnd := route.SegmentEndArc(segIdx)
	for _, a := range out.Anomalies {
		center := (a.StartArc + a.EndArc) / 2
		if center >= incStart-100 && center <= incEnd+100 {
			out.AnomalyNearIncident = true
		}
	}
	return out, nil
}

// SeasonalResult reproduces the Section V-B.2 offline-training step: the
// seasonal index discovers the weekday rush hours and groups the day into
// the paper's five slots.
type SeasonalResult struct {
	Seg       roadnet.SegmentID
	Index     []float64 // 24 hourly values
	RushHours []int
	Plan      traveltime.SlotPlan
}

// String renders the result.
func (r SeasonalResult) String() string {
	t := eval.NewTable(fmt.Sprintf("Seasonal index SI(i,l), corridor segment %d", r.Seg),
		"hour", "SI")
	for h, v := range r.Index {
		if v == 0 {
			continue
		}
		marker := ""
		if v >= traveltime.DefaultRushThreshold {
			marker = "  <- rush"
		}
		t.AddRow(fmt.Sprintf("%02d", h), fmt.Sprintf("%.2f%s", v, marker))
	}
	return t.String() + fmt.Sprintf("rush hours: %v; grouped plan: %v\n", r.RushHours, r.Plan)
}

// SeasonalIndexExperiment trains on hourly slots and reports the seasonal
// index of a mid-corridor segment.
func SeasonalIndexExperiment(spec ScenarioSpec, trainDays int) (SeasonalResult, error) {
	if trainDays <= 0 {
		trainDays = 10
	}
	sc, err := NewVancouver(spec)
	if err != nil {
		return SeasonalResult{}, err
	}
	store, err := TrainStore(sc, trainDays, traveltime.HourlyPlan())
	if err != nil {
		return SeasonalResult{}, err
	}
	route, _ := sc.Net.Route(roadnet.Route9)
	segID := route.SegmentID(route.NumSegments() / 2)
	si := store.SeasonalIndex(segID)
	plan, err := traveltime.GroupSlots(si, 0)
	if err != nil {
		return SeasonalResult{}, err
	}
	return SeasonalResult{
		Seg:       segID,
		Index:     si,
		RushHours: traveltime.RushHours(si, 0),
		Plan:      plan,
	}, nil
}
