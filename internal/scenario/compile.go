package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/mobility"
	"wilocator/internal/roadnet"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/wifi"
	"wilocator/internal/xrand"
)

// Day is the simulated service day: the same Monday the rest of the test
// fleet uses (loadtest.T0's date), at midnight.
var Day = time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)

// EventKind classifies who produced a delivery-stream event.
type EventKind string

const (
	// KindClean is a genuine rider/driver phone report.
	KindClean EventKind = "clean"
	// KindSybil is a fabricated reporter on a route that does not exist.
	KindSybil EventKind = "sybil"
	// KindPoison is a clone of a clean report with an absurd RSS payload.
	KindPoison EventKind = "poison"
	// KindReplay re-delivers an old scan of a real bus far too late.
	KindReplay EventKind = "replay"
)

// Event is one delivery of one report to the server. The stream is replayed
// in slice order; Deliver timestamps drive churn-wave scheduling and Seq
// breaks ties deterministically.
type Event struct {
	Deliver time.Time
	Seq     int
	Kind    EventKind
	// BusIdx indexes Compiled.Buses; -1 for sybil reporters.
	BusIdx int
	Report api.Report
}

// Bus is one dispatched vehicle with its ground-truth motion.
type Bus struct {
	ID      string
	RouteID string
	Trip    *mobility.Trip
}

// Wave is a compiled churn wave: the APs that die at At.
type Wave struct {
	At   time.Time
	Dead []wifi.BSSID
}

// Compiled is a scenario expanded to concrete world state and a
// deterministic event stream, ready to replay.
type Compiled struct {
	Spec Spec
	Net  *roadnet.Network
	Dep  *wifi.Deployment
	Dia  *svd.Diagram
	// Doc is the rendered GTFS-like timetable the dispatch plan
	// round-tripped through (kept for debugging and tests).
	Doc       string
	Timetable *Timetable
	// Start is the service window's start; End is just after the last
	// delivery, the instant queries are evaluated at.
	Start, End time.Time
	Buses      []Bus
	Events     []Event
	Waves      []Wave
}

// CleanReports returns the delivery-ordered clean reports of one bus — the
// scenario-world adapter the chaos harness replays.
func (c *Compiled) CleanReports(busIdx int) []api.Report {
	var out []api.Report
	for _, ev := range c.Events {
		if ev.Kind == KindClean && ev.BusIdx == busIdx {
			out = append(out, ev.Report)
		}
	}
	return out
}

// congestionField expands the spec passthrough into the mobility field.
func congestionField(spec Spec) *mobility.CongestionField {
	return &mobility.CongestionField{
		// Decorrelate the field from the other per-seed streams.
		Seed:         spec.Seed ^ 0xC0E57A11,
		RushFactor:   spec.Congestion.RushFactor,
		MiddayFactor: spec.Congestion.MiddayFactor,
		Sigma:        spec.Congestion.Sigma,
		DaySigma:     spec.Congestion.DaySigma,
	}
}

type dispatch struct {
	tripID  string
	routeID string
	at      time.Duration
}

// compileDispatches expands the demand profile into the day's dispatch
// plan, round-tripping it through the GTFS-like renderer and importer.
func compileDispatches(spec Spec, net *roadnet.Network) ([]dispatch, string, *Timetable, error) {
	offsets, err := mobility.DemandDepartures(spec.BaseHeadway, spec.StartHour, spec.EndHour, spec.Demand)
	if err != nil {
		return nil, "", nil, err
	}
	depMap := make(map[string][]time.Duration, len(net.Routes()))
	for _, r := range net.Routes() {
		depMap[r.ID()] = offsets
	}
	doc, err := RenderTimetable(net, depMap)
	if err != nil {
		return nil, "", nil, err
	}
	tt, err := ImportTimetable(strings.NewReader(doc))
	if err != nil {
		return nil, "", nil, fmt.Errorf("scenario: re-importing rendered timetable: %w", err)
	}
	dispatches := make([]dispatch, 0, len(tt.Trips))
	for _, trip := range tt.Trips {
		dispatches = append(dispatches, dispatch{tripID: trip.ID, routeID: trip.RouteID, at: trip.Times[0].At})
	}
	sort.Slice(dispatches, func(i, j int) bool {
		a, b := dispatches[i], dispatches[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.routeID != b.routeID {
			return a.routeID < b.routeID
		}
		return a.tripID < b.tripID
	})
	return thinDispatches(dispatches, spec.MaxTrips), doc, tt, nil
}

// thinDispatches caps the dispatch count by striding across the whole
// window, so a day-scale scenario keeps morning, midday and evening
// coverage instead of only its first hours.
func thinDispatches(in []dispatch, maxTrips int) []dispatch {
	if maxTrips <= 0 || len(in) <= maxTrips {
		return in
	}
	out := make([]dispatch, 0, maxTrips)
	for i := 0; i < maxTrips; i++ {
		out = append(out, in[i*len(in)/maxTrips])
	}
	return out
}

// seedIncidents scatters the spec's incident storm over the segments the
// routes actually traverse, active from a random point in the window.
func seedIncidents(net *roadnet.Network, spec Spec, rng *xrand.Rand) ([]mobility.Incident, error) {
	if spec.Incidents.Count <= 0 {
		return nil, nil
	}
	if spec.Incidents.SlowFactor <= 1 {
		return nil, fmt.Errorf("scenario: incident slow factor %.2f must be > 1", spec.Incidents.SlowFactor)
	}
	dur := spec.Incidents.Duration
	if dur <= 0 {
		dur = 30 * time.Minute
	}
	routes := net.Routes()
	windowStart := Day.Add(time.Duration(spec.StartHour) * time.Hour)
	window := time.Duration(spec.EndHour-spec.StartHour) * time.Hour
	out := make([]mobility.Incident, 0, spec.Incidents.Count)
	for i := 0; i < spec.Incidents.Count; i++ {
		route := routes[rng.Intn(len(routes))]
		segIdx := rng.Intn(route.NumSegments())
		segID := route.SegmentID(segIdx)
		seg, _ := net.Graph.Segment(segID)
		length := seg.Length()
		lo := rng.Range(0, length*0.5)
		start := windowStart.Add(time.Duration(rng.Range(0, float64(window)*0.5)))
		out = append(out, mobility.Incident{
			Seg:        segID,
			Start:      start,
			End:        start.Add(dur),
			SlowFactor: spec.Incidents.SlowFactor,
			ArcStart:   lo,
			ArcEnd:     lo + length*0.3,
		})
	}
	return out, nil
}

// Compile expands a Spec into world state and the deterministic event
// stream. It never mutates package state; churn waves are only described
// (Run applies them to the compiled deployment).
func Compile(spec Spec) (*Compiled, error) {
	spec = spec.withDefaults()
	net, err := roadnet.BuildCity(spec.City)
	if err != nil {
		return nil, err
	}
	root := xrand.New(spec.Seed)
	dspec := wifi.DefaultDeploySpec()
	dspec.Spacing = spec.APSpacing
	dep, err := wifi.Deploy(net, dspec, root.Split("deploy"))
	if err != nil {
		return nil, err
	}
	dia, err := svd.Build(net, dep, svd.Config{GridStep: -1})
	if err != nil {
		return nil, err
	}

	dispatches, doc, tt, err := compileDispatches(spec, net)
	if err != nil {
		return nil, err
	}
	if len(dispatches) == 0 {
		return nil, fmt.Errorf("scenario %q: empty dispatch plan", spec.Name)
	}

	field := congestionField(spec)
	incidents, err := seedIncidents(net, spec, root.Split("incidents"))
	if err != nil {
		return nil, err
	}

	phoneCfg := sensing.PhoneConfig{
		ReportLoss:   spec.Device.ReportLoss,
		BiasSigma:    spec.Device.BiasSigma,
		DropoutProb:  spec.Device.DropoutProb,
		ClockSkewMax: spec.Device.ClockSkewMax,
	}
	if phoneCfg.ReportLoss == 0 {
		phoneCfg.ReportLoss = -1 // scenarios opt in to report loss explicitly
	}

	c := &Compiled{
		Spec:      spec,
		Net:       net,
		Dep:       dep,
		Dia:       dia,
		Doc:       doc,
		Timetable: tt,
		Start:     Day.Add(time.Duration(spec.StartHour) * time.Hour),
	}
	for i, d := range dispatches {
		busID := fmt.Sprintf("bus-%03d-%s", i, d.routeID)
		start := Day.Add(d.at)
		trip, err := mobility.Drive(net, d.routeID, start, spec.Drive, field, incidents, root.SplitN("trip", i))
		if err != nil {
			return nil, fmt.Errorf("scenario %q: bus %s: %w", spec.Name, busID, err)
		}
		phones, err := sensing.NewRiderPhones(busID, spec.Phones, dep, phoneCfg, root.SplitN("phones", i))
		if err != nil {
			return nil, fmt.Errorf("scenario %q: bus %s: %w", spec.Name, busID, err)
		}
		route, _ := net.Route(d.routeID)
		horizon := start.Add(spec.TripHorizon)
		var evs []Event
		for at := trip.Start(); !trip.Done(at) && at.Before(horizon); at = at.Add(spec.ScanPeriod) {
			pos := route.PointAt(trip.ArcAt(at))
			for _, p := range phones {
				scan, ok := p.ScanAt(pos, at)
				if !ok {
					continue
				}
				evs = append(evs, Event{
					Deliver: at,
					Kind:    KindClean,
					BusIdx:  i,
					Report:  api.Report{BusID: busID, RouteID: d.routeID, PhoneID: p.ID(), Scan: scan},
				})
			}
		}
		evs = perturbEvents(evs, root.SplitN("perturb", i), spec)
		c.Events = append(c.Events, evs...)
		c.Buses = append(c.Buses, Bus{ID: busID, RouteID: d.routeID, Trip: trip})
	}
	for i := range c.Events {
		c.Events[i].Seq = i
	}

	if err := c.addAdversary(root.Split("adversary")); err != nil {
		return nil, err
	}
	if err := c.addChurn(root); err != nil {
		return nil, err
	}

	sort.SliceStable(c.Events, func(i, j int) bool {
		a, b := c.Events[i], c.Events[j]
		if !a.Deliver.Equal(b.Deliver) {
			return a.Deliver.Before(b.Deliver)
		}
		return a.Seq < b.Seq
	})
	c.End = c.Start
	if n := len(c.Events); n > 0 {
		c.End = c.Events[n-1].Deliver.Add(spec.ScanPeriod)
	}
	return c, nil
}

// perturbEvents injects at-least-once and out-of-order delivery into one
// bus's events: duplicates are inserted in place, then adjacent pairs may
// trade payloads while keeping their delivery slots — a swap across a
// fusion-window boundary yields a genuinely late scan.
func perturbEvents(in []Event, rng *xrand.Rand, spec Spec) []Event {
	out := make([]Event, 0, len(in)+len(in)/8)
	for _, ev := range in {
		out = append(out, ev)
		if spec.DupProb > 0 && rng.Bool(spec.DupProb) {
			out = append(out, ev)
		}
	}
	if spec.SwapProb > 0 {
		for k := 0; k+1 < len(out); k += 2 {
			if rng.Bool(spec.SwapProb) {
				out[k].Report, out[k+1].Report = out[k+1].Report, out[k].Report
			}
		}
	}
	return out
}

// addAdversary appends the hostile event set. Every adversarial event is a
// deep clone — mutating its readings must never corrupt the clean stream.
func (c *Compiled) addAdversary(rng *xrand.Rand) error {
	adv := c.Spec.Adversary
	if adv.isZero() {
		return nil
	}
	var clean []int
	perBus := map[int][]int{}
	for i, ev := range c.Events {
		if ev.Kind != KindClean {
			continue
		}
		clean = append(clean, i)
		perBus[ev.BusIdx] = append(perBus[ev.BusIdx], i)
	}
	if len(clean) == 0 {
		return fmt.Errorf("scenario %q: adversary configured but no clean events to shadow", c.Spec.Name)
	}
	seq := len(c.Events)
	nextSeq := func() int { seq++; return seq - 1 }

	for s := 0; s < adv.SybilReporters; s++ {
		for r := 0; r < adv.SybilReports; r++ {
			src := c.Events[clean[rng.Intn(len(clean))]]
			rep := cloneReport(src.Report)
			rep.BusID = fmt.Sprintf("sybil-%02d", s)
			rep.RouteID = fmt.Sprintf("ghost-%d", s)
			rep.PhoneID = fmt.Sprintf("sybil-%02d-phone", s)
			c.Events = append(c.Events, Event{
				Deliver: src.Deliver, Seq: nextSeq(), Kind: KindSybil, BusIdx: -1, Report: rep,
			})
		}
	}

	for k := 0; k < adv.PoisonedReports; k++ {
		src := c.Events[clean[rng.Intn(len(clean))]]
		rep := cloneReport(src.Report)
		if len(rep.Scan.Readings) == 0 {
			rep.Scan.Readings = []wifi.Reading{{BSSID: "poisoned", RSSI: 0}}
		}
		rep.Scan.Readings[0].RSSI = 9999
		c.Events = append(c.Events, Event{
			Deliver: src.Deliver, Seq: nextSeq(), Kind: KindPoison, BusIdx: src.BusIdx, Report: rep,
		})
	}

	if adv.ReplayedReports > 0 {
		// Replays must land while the victim is still mid-trip: anchoring
		// at the three-quarter mark of the bus's clean stream guarantees
		// the cloned early scan falls windows behind the current bucket
		// (late-dropped) without ever reaching a finished bus, whose
		// re-registration would wipe the trajectory.
		var eligible []int
		for b := range c.Buses {
			if len(perBus[b]) >= 8 {
				eligible = append(eligible, b)
			}
		}
		if len(eligible) == 0 {
			return fmt.Errorf("scenario %q: replay adversary needs a bus with >= 8 clean events", c.Spec.Name)
		}
		for k := 0; k < adv.ReplayedReports; k++ {
			evs := perBus[eligible[k%len(eligible)]]
			src := c.Events[evs[k%(len(evs)/4)]]
			anchor := c.Events[evs[len(evs)*3/4]]
			if anchor.Report.Scan.Time.Sub(src.Report.Scan.Time) < 2*c.Spec.ScanPeriod {
				return fmt.Errorf("scenario %q: replay %d would not be late (src and anchor windows too close)", c.Spec.Name, k)
			}
			c.Events = append(c.Events, Event{
				Deliver: anchor.Deliver, Seq: nextSeq(), Kind: KindReplay,
				BusIdx: src.BusIdx, Report: cloneReport(src.Report),
			})
		}
	}
	return nil
}

// addChurn compiles the churn waves: which APs die when, and the physical
// consequence — dead APs vanish from every clean scan after the wave. Only
// clean events are scrubbed; adversarial clones keep their (hostile)
// payloads byte-for-byte.
func (c *Compiled) addChurn(root *xrand.Rand) error {
	if len(c.Spec.Churn) == 0 {
		return nil
	}
	alive := make([]wifi.BSSID, 0, c.Dep.NumAPs())
	for _, ap := range c.Dep.ActiveAPs() {
		alive = append(alive, ap.BSSID)
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	dead := map[wifi.BSSID]bool{}
	for w, cw := range c.Spec.Churn {
		if cw.Frac <= 0 || cw.Frac >= 1 {
			return fmt.Errorf("scenario %q: churn wave %d frac %.2f outside (0,1)", c.Spec.Name, w, cw.Frac)
		}
		rng := root.SplitN("churn", w)
		count := int(cw.Frac * float64(len(alive)))
		if count < 1 {
			count = 1
		}
		if count >= len(alive) {
			return fmt.Errorf("scenario %q: churn wave %d would kill the whole deployment", c.Spec.Name, w)
		}
		for i := 0; i < count; i++ {
			j := i + rng.Intn(len(alive)-i)
			alive[i], alive[j] = alive[j], alive[i]
		}
		wave := Wave{At: c.Start.Add(cw.After), Dead: append([]wifi.BSSID(nil), alive[:count]...)}
		sort.Slice(wave.Dead, func(i, j int) bool { return wave.Dead[i] < wave.Dead[j] })
		for _, b := range wave.Dead {
			dead[b] = true
		}
		alive = alive[count:]
		sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
		c.Waves = append(c.Waves, wave)

		for i := range c.Events {
			ev := &c.Events[i]
			if ev.Kind != KindClean || ev.Deliver.Before(wave.At) {
				continue
			}
			kept := ev.Report.Scan.Readings[:0:0]
			for _, rd := range ev.Report.Scan.Readings {
				if !dead[rd.BSSID] {
					kept = append(kept, rd)
				}
			}
			ev.Report.Scan.Readings = kept
		}
	}
	return nil
}

func cloneReport(rep api.Report) api.Report {
	readings := make([]wifi.Reading, len(rep.Scan.Readings))
	copy(readings, rep.Scan.Readings)
	rep.Scan.Readings = readings
	return rep
}
