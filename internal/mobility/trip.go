package mobility

import (
	"fmt"
	"sort"
	"time"

	"wilocator/internal/roadnet"
	"wilocator/internal/xrand"
)

// DriveConfig tunes how buses are driven. The zero value selects defaults.
type DriveConfig struct {
	// OrdinarySpeedFrac and RapidSpeedFrac are the fractions of the segment
	// speed limit at which each class cruises in free flow. Defaults 0.75
	// and 0.95 — the paper notes a rapid line "usually runs faster than
	// ordinary buses" on the same road.
	OrdinarySpeedFrac float64
	RapidSpeedFrac    float64
	// DwellMean and DwellSigma parameterise per-stop dwell in seconds.
	// Defaults 18 and 8.
	DwellMean, DwellSigma float64
	// LightRedProb is the probability of catching a red at a signalled
	// intersection; LightMaxWait bounds the uniform wait. Defaults 0.4 and
	// 45 s.
	LightRedProb float64
	LightMaxWait float64
	// DriverSigma is the log-scale spread of the per-trip driver speed
	// factor (route-dependent component of Eq. 3). Default 0.05.
	DriverSigma float64
	// RapidCongestionSensitivity scales how much of the congestion slowdown
	// a rapid line experiences (dedicated lanes and queue jumps — the
	// paper's observation that the Rapid Line "suffers less from the
	// traffic jam in the overlapped segments"). 1 = full congestion;
	// default 0.35.
	RapidCongestionSensitivity float64
	// RapidLightFactor scales the rapid line's red-light probability
	// (transit signal priority). Default 0.3.
	RapidLightFactor float64
}

func (c DriveConfig) withDefaults() DriveConfig {
	if c.OrdinarySpeedFrac <= 0 {
		c.OrdinarySpeedFrac = 0.75
	}
	if c.RapidSpeedFrac <= 0 {
		c.RapidSpeedFrac = 0.95
	}
	if c.DwellMean <= 0 {
		c.DwellMean = 18
	}
	if c.DwellSigma <= 0 {
		c.DwellSigma = 8
	}
	if c.LightRedProb <= 0 {
		c.LightRedProb = 0.4
	}
	if c.LightMaxWait <= 0 {
		c.LightMaxWait = 45
	}
	if c.DriverSigma <= 0 {
		c.DriverSigma = 0.05
	}
	if c.RapidCongestionSensitivity <= 0 || c.RapidCongestionSensitivity > 1 {
		c.RapidCongestionSensitivity = 0.4
	}
	if c.RapidLightFactor <= 0 || c.RapidLightFactor > 1 {
		c.RapidLightFactor = 0.3
	}
	return c
}

// breakpoint is one vertex of the piecewise-linear arc(t) profile.
type breakpoint struct {
	at  time.Time
	arc float64
}

// Trip is the ground-truth motion of one bus over one run of its route. It
// is immutable once created.
type Trip struct {
	routeID string
	start   time.Time
	bps     []breakpoint
	length  float64
}

// Drive simulates one bus trip on routeID departing at start. The congestion
// field and incidents are shared world state; rng supplies the per-trip
// randomness (driver factor, dwells, lights).
func Drive(net *roadnet.Network, routeID string, start time.Time, cfg DriveConfig,
	field *CongestionField, incidents []Incident, rng *xrand.Rand) (*Trip, error) {
	route, ok := net.Route(routeID)
	if !ok {
		return nil, fmt.Errorf("mobility: unknown route %q", routeID)
	}
	if field == nil {
		return nil, fmt.Errorf("mobility: nil congestion field")
	}
	if rng == nil {
		return nil, fmt.Errorf("mobility: nil rng")
	}
	cfg = cfg.withDefaults()

	speedFrac := cfg.OrdinarySpeedFrac
	dwellScale := 1.0
	dwellSpread := 1.0
	congestionSens := 1.0
	lightProb := cfg.LightRedProb
	if route.Class() == roadnet.ClassRapid {
		speedFrac = cfg.RapidSpeedFrac
		// More boardings per stop, but all-door boarding keeps the dwell
		// far more predictable than an ordinary bus's.
		dwellScale = 1.3
		dwellSpread = 0.5
		congestionSens = cfg.RapidCongestionSensitivity
		lightProb *= cfg.RapidLightFactor
	}
	driverSigma := cfg.DriverSigma
	if route.Class() == roadnet.ClassRapid {
		// Dedicated-lane running makes rapid trips far more repeatable.
		driverSigma *= 0.4
	}
	driver := clampPos(1 + rng.Norm(0, driverSigma))

	tr := &Trip{routeID: routeID, start: start, length: route.Length()}
	now := start
	tr.bps = append(tr.bps, breakpoint{at: now, arc: 0})

	stops := route.Stops()
	stopIdx := 0
	// Skip the departure stop at arc 0 — the dispatch time already includes it.
	for stopIdx < len(stops) && stops[stopIdx].Arc <= 0 {
		stopIdx++
	}

	for segIdx := 0; segIdx < route.NumSegments(); segIdx++ {
		segID := route.SegmentID(segIdx)
		seg, _ := net.Graph.Segment(segID)
		segStart := route.SegmentStartArc(segIdx)
		segEnd := route.SegmentEndArc(segIdx)

		factor := 1 + (field.Factor(segID, now)-1)*congestionSens
		speed := seg.SpeedLimit * speedFrac * driver / factor

		arc := segStart
		for arc < segEnd-1e-9 {
			// Next event on this segment: stop, incident boundary, or end.
			next := segEnd
			if stopIdx < len(stops) && stops[stopIdx].Arc < next {
				next = stops[stopIdx].Arc
			}
			v := speed
			if in, slow := activeIncident(incidents, segID, now); slow {
				inStart := segStart + in.ArcStart
				inEnd := segStart + in.ArcEnd
				switch {
				case arc >= inStart && arc < inEnd:
					v = speed / in.SlowFactor
					if inEnd < next {
						next = inEnd
					}
				case arc < inStart && inStart < next:
					next = inStart
				}
			}
			if next <= arc {
				next = arc + 1e-6
			}
			now = now.Add(durSeconds((next - arc) / v))
			arc = next
			tr.bps = append(tr.bps, breakpoint{at: now, arc: arc})

			if stopIdx < len(stops) && arc >= stops[stopIdx].Arc-1e-9 && stops[stopIdx].Arc < segEnd {
				// Rush-hour crowds stretch boarding along with the traffic.
				dwellCongestion := 1 + (factor-1)*0.5
				dwell := clampPos(rng.Norm(cfg.DwellMean*dwellScale*dwellCongestion, cfg.DwellSigma*dwellSpread))
				now = now.Add(durSeconds(dwell))
				tr.bps = append(tr.bps, breakpoint{at: now, arc: arc})
				stopIdx++
			}
		}

		// Traffic light at the segment end.
		if seg.Signal && segIdx < route.NumSegments()-1 && rng.Bool(lightProb) {
			wait := rng.Range(0, cfg.LightMaxWait)
			now = now.Add(durSeconds(wait))
			tr.bps = append(tr.bps, breakpoint{at: now, arc: segEnd})
		}
	}
	return tr, nil
}

func activeIncident(incidents []Incident, seg roadnet.SegmentID, at time.Time) (Incident, bool) {
	for _, in := range incidents {
		if in.Seg == seg && in.ActiveAt(at) && in.SlowFactor > 1 {
			return in, true
		}
	}
	return Incident{}, false
}

func clampPos(v float64) float64 {
	if v < 0.1 {
		return 0.1
	}
	return v
}

func durSeconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// RouteID returns the route the trip runs on.
func (t *Trip) RouteID() string { return t.routeID }

// Start returns the departure time.
func (t *Trip) Start() time.Time { return t.start }

// End returns the arrival time at the final stop.
func (t *Trip) End() time.Time { return t.bps[len(t.bps)-1].at }

// Duration returns the total trip time.
func (t *Trip) Duration() time.Duration { return t.End().Sub(t.start) }

// Done reports whether the trip has finished by time at.
func (t *Trip) Done(at time.Time) bool { return !at.Before(t.End()) }

// ArcAt returns the ground-truth arc length at time at, clamped to the trip.
func (t *Trip) ArcAt(at time.Time) float64 {
	if !at.After(t.start) {
		return 0
	}
	if t.Done(at) {
		return t.length
	}
	i := sort.Search(len(t.bps), func(i int) bool { return t.bps[i].at.After(at) })
	// 0 < i < len(bps) here because start <= at < end.
	a, b := t.bps[i-1], t.bps[i]
	span := b.at.Sub(a.at)
	if span <= 0 {
		return a.arc
	}
	frac := float64(at.Sub(a.at)) / float64(span)
	return a.arc + frac*(b.arc-a.arc)
}

// TimeAtArc returns the first instant the bus reaches the given arc length.
func (t *Trip) TimeAtArc(arc float64) time.Time {
	if arc <= 0 {
		return t.start
	}
	if arc >= t.length {
		return t.End()
	}
	i := sort.Search(len(t.bps), func(i int) bool { return t.bps[i].arc >= arc })
	if i == 0 {
		return t.start
	}
	a, b := t.bps[i-1], t.bps[i]
	if b.arc == a.arc {
		return a.at
	}
	frac := (arc - a.arc) / (b.arc - a.arc)
	return a.at.Add(time.Duration(frac * float64(b.at.Sub(a.at))))
}

// Traversal is one ground-truth segment traversal of a trip.
type Traversal struct {
	Seg     roadnet.SegmentID
	RouteID string
	Enter   time.Time
	Exit    time.Time
}

// Traversals extracts the per-segment traversals of a trip by reading the
// exact boundary-crossing times from the motion profile. The live system
// derives the same records from tracker-interpolated crossings; the
// ground-truth version is used for offline training and evaluation.
func Traversals(net *roadnet.Network, trip *Trip) ([]Traversal, error) {
	route, ok := net.Route(trip.RouteID())
	if !ok {
		return nil, fmt.Errorf("mobility: unknown route %q", trip.RouteID())
	}
	out := make([]Traversal, 0, route.NumSegments())
	enter := trip.Start()
	for i := 0; i < route.NumSegments(); i++ {
		exit := trip.TimeAtArc(route.SegmentEndArc(i))
		out = append(out, Traversal{
			Seg:     route.SegmentID(i),
			RouteID: trip.RouteID(),
			Enter:   enter,
			Exit:    exit,
		})
		enter = exit
	}
	return out, nil
}
