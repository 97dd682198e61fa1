package scenario

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/eval"
	"wilocator/internal/mobility"
	"wilocator/internal/obs"
	"wilocator/internal/roadnet"
	"wilocator/internal/server"
	"wilocator/internal/trafficmap"
	"wilocator/internal/traveltime"
	"wilocator/internal/xrand"
)

// WorldSummary pins the compiled world's shape into the golden output, so a
// generator change is visible even before it shifts a single fix.
type WorldSummary struct {
	Form     string  `json:"form"`
	Nodes    int     `json:"nodes"`
	Segments int     `json:"segments"`
	Routes   int     `json:"routes"`
	RoadKm   float64 `json:"roadKm"`
	APs      int     `json:"aps"`
	Tiles    int     `json:"tiles"`
	Cells    int     `json:"cells"`
}

// KindTally counts ingest outcomes for one event kind.
type KindTally struct {
	Delivered   int `json:"delivered"`
	Accepted    int `json:"accepted"`
	Rejected    int `json:"rejected"`
	LateDropped int `json:"lateDropped"`
	Located     int `json:"located"`
}

// SeasonalBlock is the day-scale scenarios' seasonal-index digest: the
// hourly SI(i,l) profile of one probe segment and the rush hours it flags.
type SeasonalBlock struct {
	Seg       roadnet.SegmentID `json:"seg"`
	Index     []float64         `json:"index"`
	RushHours []int             `json:"rushHours"`
}

// Result is everything a scenario replay tells a user, JSON-stable: maps
// key by string (encoding/json sorts them) and no wall-clock field is
// included, so two runs of one Spec render byte-identical documents.
type Result struct {
	Name   string       `json:"name"`
	Seed   uint64       `json:"seed"`
	World  WorldSummary `json:"world"`
	Trips  int          `json:"trips"`
	Events int          `json:"events"`
	// ByKind splits ingest outcomes by event kind, so adversarial shed
	// paths are visible next to the clean stream they must not perturb.
	ByKind       map[string]KindTally              `json:"byKind"`
	Ingest       api.IngestStats                   `json:"ingest"`
	Generation   uint64                            `json:"generation"`
	Rebuilds     uint64                            `json:"rebuilds"`
	Vehicles     []api.VehicleStatus               `json:"vehicles"`
	Arrivals     map[string][]api.ArrivalEstimate  `json:"arrivals"`
	TrafficStrip string                            `json:"trafficStrip"`
	Coverage     float64                           `json:"coverage"`
	Trajectories map[string]api.TrajectoryResponse `json:"trajectories"`
	Anomalies    []api.AnomalyReport               `json:"anomalies"`
	// PositionError summarises |fix - ground truth| over every clean
	// trajectory fix, in metres along the route.
	PositionError eval.Summary `json:"positionError"`
	// CleanFixRate is fixes per completed fusion window.
	CleanFixRate float64 `json:"cleanFixRate"`
	// Seasonal is present for day-scale windows (>= 12 h).
	Seasonal *SeasonalBlock `json:"seasonal,omitempty"`
	// Metrics samples the allowlisted counter families from the service's
	// /metrics registry (wall-time families are excluded by construction).
	Metrics map[string]uint64 `json:"metrics"`
}

// metricAllowlist are the counter-only families sampled into Result.Metrics.
// Histograms and gauges carry wall-clock durations and are excluded to keep
// goldens byte-stable.
var metricAllowlist = map[string]bool{
	"wilocator_ingest_reports_total":         true,
	"wilocator_ingest_invalid_reports_total": true,
	"wilocator_ingest_flushes_total":         true,
	"wilocator_ingest_fixes_total":           true,
	"wilocator_bus_registrations_total":      true,
	"wilocator_rebuilds_total":               true,
	"wilocator_locate_lookups_total":         true,
}

// Run compiles the spec and replays its event stream through the real
// pipeline: one server.Service with a fresh metrics registry, churn waves
// applied as AP deactivation + live diagram rebuild at their scheduled
// instants, every query evaluated at the stream's end on a fixed clock.
func Run(spec Spec) (*Result, error) {
	c, err := Compile(spec)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	store := traveltime.NewStore(traveltime.PaperPlan())
	svc, err := server.NewService(c.Dia, store, server.Config{
		FusionWindow: c.Spec.ScanPeriod,
		Now:          func() time.Time { return c.End },
		Metrics:      reg,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		Name:         c.Spec.Name,
		Seed:         c.Spec.Seed,
		World:        summarizeWorld(c),
		Trips:        len(c.Buses),
		Events:       len(c.Events),
		ByKind:       map[string]KindTally{},
		Arrivals:     map[string][]api.ArrivalEstimate{},
		Trajectories: map[string]api.TrajectoryResponse{},
	}

	applyWave := func(w Wave) error {
		for _, b := range w.Dead {
			if err := c.Dep.Deactivate(b); err != nil {
				return fmt.Errorf("scenario %q: churn wave: %w", c.Spec.Name, err)
			}
		}
		if _, err := svc.Rebuild(context.Background()); err != nil {
			return fmt.Errorf("scenario %q: rebuild after churn wave: %w", c.Spec.Name, err)
		}
		return nil
	}

	wi := 0
	for _, ev := range c.Events {
		for wi < len(c.Waves) && !ev.Deliver.Before(c.Waves[wi].At) {
			if err := applyWave(c.Waves[wi]); err != nil {
				return nil, err
			}
			wi++
		}
		resp, err := svc.Ingest(ev.Report)
		if err != nil && ev.Kind == KindClean {
			return nil, fmt.Errorf("scenario %q: clean report for %s rejected: %w", c.Spec.Name, ev.Report.BusID, err)
		}
		t := res.ByKind[string(ev.Kind)]
		t.Delivered++
		switch {
		case err != nil:
			t.Rejected++
		case resp.Accepted:
			t.Accepted++
			if resp.Located {
				t.Located++
			}
		case resp.Reason == api.ReasonLateScan:
			t.LateDropped++
		}
		res.ByKind[string(ev.Kind)] = t
	}
	for ; wi < len(c.Waves); wi++ {
		if err := applyWave(c.Waves[wi]); err != nil {
			return nil, err
		}
	}

	res.Ingest = svc.Stats()
	res.Generation = svc.Generation()
	res.Rebuilds = svc.RebuildStats().Rebuilds
	res.Vehicles = svc.Vehicles("")
	if res.Ingest.Flushes > 0 {
		res.CleanFixRate = float64(res.Ingest.Located) / float64(res.Ingest.Flushes)
	}

	for _, route := range c.Net.Routes() {
		ests, err := svc.Arrivals(route.ID(), route.NumStops()-1)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: arrivals %s: %w", c.Spec.Name, route.ID(), err)
		}
		res.Arrivals[route.ID()] = ests
	}

	tm, err := svc.TrafficMap("")
	if err != nil {
		return nil, err
	}
	res.TrafficStrip = tm.Strip
	res.Coverage = trafficmap.Coverage(tm.Segments)

	var posErrs []float64
	for _, bus := range c.Buses {
		traj, err := svc.Trajectory(bus.ID)
		if err != nil {
			// A bus whose every report was lost never registered; the
			// scenario still replays deterministically without it.
			continue
		}
		res.Trajectories[bus.ID] = traj
		for _, fix := range traj.Fixes {
			posErrs = append(posErrs, math.Abs(fix.Arc-bus.Trip.ArcAt(fix.Time)))
		}
	}
	res.PositionError = eval.Summarize(posErrs)

	res.Anomalies, err = svc.Anomalies("")
	if err != nil {
		return nil, err
	}

	if c.Spec.EndHour-c.Spec.StartHour >= 12 {
		res.Seasonal = seasonalBlock(c.Net, store)
	}

	res.Metrics, err = sampleMetrics(reg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func summarizeWorld(c *Compiled) WorldSummary {
	meters := 0.0
	for _, seg := range c.Net.Graph.Segments() {
		meters += seg.Length()
	}
	return WorldSummary{
		Form:     string(c.Spec.City.Form),
		Nodes:    c.Net.Graph.NumNodes(),
		Segments: c.Net.Graph.NumSegments(),
		Routes:   len(c.Net.Routes()),
		RoadKm:   math.Round(meters) / 1000,
		APs:      c.Dep.NumAPs(),
		Tiles:    c.Dia.NumTiles(),
		Cells:    c.Dia.NumCells(),
	}
}

// seasonalBlock probes the seasonal index on an ordinary (fully
// congestion-exposed) route's middle segment.
func seasonalBlock(net *roadnet.Network, store *traveltime.Store) *SeasonalBlock {
	seg := probeSegment(net)
	si := store.SeasonalIndex(seg)
	rounded := make([]float64, len(si))
	for i, v := range si {
		rounded[i] = math.Round(v*1e4) / 1e4
	}
	return &SeasonalBlock{
		Seg:       seg,
		Index:     rounded,
		RushHours: traveltime.RushHours(rounded, 0),
	}
}

// probeSegment picks the middle segment of the first ordinary route (rapid
// lines damp congestion and would blur the seasonal signal).
func probeSegment(net *roadnet.Network) roadnet.SegmentID {
	routes := net.Routes()
	pick := routes[0]
	for _, r := range routes {
		if r.Class() != roadnet.ClassRapid {
			pick = r
			break
		}
	}
	return pick.SegmentID(pick.NumSegments() / 2)
}

// sampleMetrics renders the registry and keeps the allowlisted counter
// series, keyed by their full exposition name (family plus labels).
func sampleMetrics(reg *obs.Registry) (map[string]uint64, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			continue
		}
		key, val := line[:idx], line[idx+1:]
		fam := key
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		if !metricAllowlist[fam] {
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			continue // non-counter series never enter the allowlist
		}
		out[key] = v
	}
	return out, nil
}

// TruthStore drives the scenario's full dispatch plan through the mobility
// model alone — no radio, no positioning — and returns a store of exact
// ground-truth traversals. This is the oracle the seasonal-index tests
// interrogate: SI(i,l) over TruthStore reflects the injected demand and
// congestion cycles with no estimation noise on top.
func TruthStore(spec Spec) (*traveltime.Store, *roadnet.Network, error) {
	spec = spec.withDefaults()
	net, err := roadnet.BuildCity(spec.City)
	if err != nil {
		return nil, nil, err
	}
	root := xrand.New(spec.Seed)
	dispatches, _, _, err := compileDispatches(spec, net)
	if err != nil {
		return nil, nil, err
	}
	field := congestionField(spec)
	incidents, err := seedIncidents(net, spec, root.Split("incidents"))
	if err != nil {
		return nil, nil, err
	}
	store := traveltime.NewStore(traveltime.HourlyPlan())
	for i, d := range dispatches {
		trip, err := mobility.Drive(net, d.routeID, Day.Add(d.at), spec.Drive, field, incidents, root.SplitN("trip", i))
		if err != nil {
			return nil, nil, err
		}
		travs, err := mobility.Traversals(net, trip)
		if err != nil {
			return nil, nil, err
		}
		for _, tv := range travs {
			rec := traveltime.Record{Seg: tv.Seg, RouteID: tv.RouteID, Enter: tv.Enter, Exit: tv.Exit}
			if err := store.Add(rec); err != nil {
				return nil, nil, err
			}
		}
	}
	return store, net, nil
}
