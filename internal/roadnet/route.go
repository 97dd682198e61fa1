package roadnet

import (
	"fmt"
	"sort"

	"wilocator/internal/geo"
)

// RouteClass distinguishes rapid transit lines from ordinary buses; the
// classes differ in regular speed and stop spacing (the paper's Rapid Line
// vs routes 9/14/16).
type RouteClass int

// Route classes.
const (
	ClassOrdinary RouteClass = iota + 1
	ClassRapid
)

// String implements fmt.Stringer.
func (c RouteClass) String() string {
	switch c {
	case ClassOrdinary:
		return "ordinary"
	case ClassRapid:
		return "rapid"
	default:
		return fmt.Sprintf("RouteClass(%d)", int(c))
	}
}

// Stop is a bus stop located on a route by arc length from the route start.
type Stop struct {
	Name string  `json:"name"`
	Arc  float64 `json:"arc"` // metres from route start
}

// Route is a bus route: a connected sequence of directed road segments
// (Definition 4) with an ordered list of stops. The first stop lies on the
// first segment and the last stop on the last segment.
type Route struct {
	id    string
	name  string
	class RouteClass

	graph    *Graph
	segIDs   []SegmentID
	segStart []float64 // arc length of each segment's start within the route
	line     *geo.Polyline
	stops    []Stop
}

// NewRoute builds a route over graph g from a chained segment sequence:
// segs[i].To must equal segs[i+1].From.
func NewRoute(g *Graph, id, name string, class RouteClass, segs []SegmentID) (*Route, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("roadnet: route %s has no segments", id)
	}
	if class != ClassOrdinary && class != ClassRapid {
		return nil, fmt.Errorf("roadnet: route %s: invalid class %d", id, int(class))
	}
	segStart := make([]float64, len(segs))
	var line *geo.Polyline
	arc := 0.0
	for i, sid := range segs {
		seg, ok := g.Segment(sid)
		if !ok {
			return nil, fmt.Errorf("roadnet: route %s references unknown segment %d", id, sid)
		}
		if i > 0 {
			prev, _ := g.Segment(segs[i-1])
			if prev.To != seg.From {
				return nil, fmt.Errorf("roadnet: route %s: segment %d->%d: %w", id, segs[i-1], sid, ErrDisconnected)
			}
		}
		segStart[i] = arc
		arc += seg.Length()
		if line == nil {
			line = seg.Line
			continue
		}
		joined, err := line.Concat(seg.Line, 1e-3)
		if err != nil {
			return nil, fmt.Errorf("roadnet: route %s: %w", id, err)
		}
		line = joined
	}
	cp := make([]SegmentID, len(segs))
	copy(cp, segs)
	return &Route{
		id:       id,
		name:     name,
		class:    class,
		graph:    g,
		segIDs:   cp,
		segStart: segStart,
		line:     line,
	}, nil
}

// ID returns the route identifier (e.g. "9").
func (r *Route) ID() string { return r.id }

// Name returns the human-readable route name.
func (r *Route) Name() string { return r.name }

// Class returns the route class.
func (r *Route) Class() RouteClass { return r.class }

// Length returns the total route length in metres.
func (r *Route) Length() float64 { return r.line.Length() }

// Line returns the route geometry as a single polyline.
func (r *Route) Line() *geo.Polyline { return r.line }

// Segments returns the route's segment IDs in travel order.
func (r *Route) Segments() []SegmentID {
	cp := make([]SegmentID, len(r.segIDs))
	copy(cp, r.segIDs)
	return cp
}

// SegmentID returns the ID of the route's idx-th segment without copying
// the segment sequence.
func (r *Route) SegmentID(idx int) SegmentID { return r.segIDs[idx] }

// NumSegments returns the number of segments on the route.
func (r *Route) NumSegments() int { return len(r.segIDs) }

// SegmentStartArc returns the arc length at which the idx-th segment of the
// route begins.
func (r *Route) SegmentStartArc(idx int) float64 { return r.segStart[idx] }

// SegmentEndArc returns the arc length at which the idx-th segment ends.
func (r *Route) SegmentEndArc(idx int) float64 {
	if idx+1 < len(r.segStart) {
		return r.segStart[idx+1]
	}
	return r.Length()
}

// SegmentAt locates the arc length s on the route, returning the index into
// the route's segment sequence, the segment ID, and the offset within that
// segment. s is clamped to [0, Length()].
func (r *Route) SegmentAt(s float64) (idx int, id SegmentID, offset float64) {
	if s <= 0 {
		return 0, r.segIDs[0], 0
	}
	if s >= r.Length() {
		last := len(r.segIDs) - 1
		return last, r.segIDs[last], r.Length() - r.segStart[last]
	}
	idx = sort.SearchFloat64s(r.segStart, s)
	// SearchFloat64s returns the first i with segStart[i] >= s; we want the
	// segment containing s.
	if idx == len(r.segStart) || r.segStart[idx] > s {
		idx--
	}
	return idx, r.segIDs[idx], s - r.segStart[idx]
}

// PointAt returns the planar point at arc length s along the route.
func (r *Route) PointAt(s float64) geo.Point { return r.line.At(s) }

// Project returns the arc length of the route point closest to p and the
// Euclidean distance from p to it.
func (r *Route) Project(p geo.Point) (s float64, dist float64) {
	s, _, dist = r.line.Project(p)
	return s, dist
}

// AddStop appends a stop at the given arc length. Stops must be added in
// increasing arc order.
func (r *Route) AddStop(name string, arc float64) error {
	if arc < 0 || arc > r.Length() {
		return fmt.Errorf("roadnet: stop %s at arc %.1f outside route %s [0, %.1f]", name, arc, r.id, r.Length())
	}
	if n := len(r.stops); n > 0 && arc < r.stops[n-1].Arc {
		return fmt.Errorf("roadnet: stop %s at arc %.1f precedes previous stop", name, arc)
	}
	r.stops = append(r.stops, Stop{Name: name, Arc: arc})
	return nil
}

// PlaceStopsEvenly creates n stops spaced evenly from the route start to the
// route end (inclusive), replacing any existing stops.
func (r *Route) PlaceStopsEvenly(n int) error {
	if n < 2 {
		return fmt.Errorf("roadnet: route %s: need at least 2 stops, got %d", r.id, n)
	}
	r.stops = r.stops[:0]
	spacing := r.Length() / float64(n-1)
	for i := 0; i < n; i++ {
		arc := float64(i) * spacing
		if i == n-1 {
			arc = r.Length()
		}
		if err := r.AddStop(fmt.Sprintf("%s-stop-%d", r.id, i+1), arc); err != nil {
			return err
		}
	}
	return nil
}

// Stops returns the route's stops in travel order.
func (r *Route) Stops() []Stop {
	cp := make([]Stop, len(r.stops))
	copy(cp, r.stops)
	return cp
}

// Stop returns the route's i-th stop without copying the stop list.
func (r *Route) Stop(i int) Stop { return r.stops[i] }

// NumStops returns the number of stops on the route.
func (r *Route) NumStops() int { return len(r.stops) }

// StopArc returns the arc length of the i-th stop.
func (r *Route) StopArc(i int) float64 { return r.stops[i].Arc }

// NextStopIndex returns the index of the first stop strictly ahead of arc
// length s, or NumStops() if the route end has been reached.
func (r *Route) NextStopIndex(s float64) int {
	return sort.Search(len(r.stops), func(i int) bool { return r.stops[i].Arc > s })
}
