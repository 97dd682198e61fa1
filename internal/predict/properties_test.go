package predict

import (
	"testing"
	"testing/quick"
	"time"

	"wilocator/internal/traveltime"
)

// TestETAMonotoneInStopIndex: from a fixed position and time, predicted
// arrivals are non-decreasing in stop index — a rider can never "arrive
// earlier" at a farther stop.
func TestETAMonotoneInStopIndex(t *testing.T) {
	net, route := lineNet(t, 8)
	store := traveltime.NewStore(traveltime.PaperPlan())
	for i, seg := range route.Segments() {
		for k := 0; k < 3; k++ {
			addRec(t, store, seg, "r", midday(-100+k+i), 30+float64(i%4)*10)
		}
	}
	w, err := NewWiLocator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawArc uint16, rawMin uint8) bool {
		fromArc := float64(rawArc) / 65535 * route.Length() * 0.9
		at := midday(int(rawMin % 120))
		prev := time.Time{}
		for m := route.NextStopIndex(fromArc); m < route.NumStops(); m++ {
			eta, err := w.PredictArrival("r", fromArc, at, m)
			if err != nil {
				return false
			}
			if eta.Before(at) {
				return false
			}
			if !prev.IsZero() && eta.Before(prev) {
				return false
			}
			prev = eta
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestETAMonotoneInPosition: moving the bus forward never pushes the ETA at
// a fixed stop later under a time-invariant store (closer bus, earlier or
// equal arrival).
func TestETAMonotoneInPosition(t *testing.T) {
	net, route := lineNet(t, 6)
	store := traveltime.NewStore(traveltime.PaperPlan())
	for i, seg := range route.Segments() {
		addRec(t, store, seg, "r", midday(-90+i), 45)
	}
	a, err := NewAgency(net, store, Config{}) // recency-free: pure composition
	if err != nil {
		t.Fatal(err)
	}
	target := route.NumStops() - 1
	at := midday(0)
	prevETA := time.Time{}
	for arc := 0.0; arc < route.StopArc(target); arc += 37 {
		eta, err := a.PredictArrival("r", arc, at, target)
		if err != nil {
			t.Fatal(err)
		}
		if !prevETA.IsZero() && eta.After(prevETA.Add(time.Millisecond)) {
			t.Fatalf("ETA increased as the bus advanced: %v -> %v at arc %v", prevETA, eta, arc)
		}
		prevETA = eta
	}
}

// TestSegmentTimePositive: predictions are always strictly positive and at
// least free flow, whatever the store contents.
func TestSegmentTimePositive(t *testing.T) {
	net, route := lineNet(t, 3)
	store := traveltime.NewStore(traveltime.PaperPlan())
	w, err := NewWiLocator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawMin uint16, secs uint8) bool {
		at := midday(int(rawMin % 1440))
		seg := route.Segments()[int(rawMin)%route.NumSegments()]
		if secs > 0 {
			addRec(t, store, seg, "r", at.Add(-30*time.Minute), float64(secs))
		}
		got, err := w.SegmentTime(seg, "r", at)
		return err == nil && got > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestForEachStopAheadMatchesPredictArrival: the single-walk predictor emits
// exactly what per-stop PredictArrival returns — same stops, same instants
// to the nanosecond — for stops on and between segment boundaries, with
// and without history, across slot boundaries.
func TestForEachStopAheadMatchesPredictArrival(t *testing.T) {
	net, route := lineNet(t, 8)
	// Six stops over eight segments: most fall mid-segment.
	if err := route.PlaceStopsEvenly(6); err != nil {
		t.Fatal(err)
	}
	store := traveltime.NewStore(traveltime.PaperPlan())
	for i, seg := range route.Segments() {
		if i == 5 {
			continue // one segment without history: free-flow fallback
		}
		for k := 0; k < 4; k++ {
			addRec(t, store, seg, "r", midday(-200+40*k+i), 20+float64((i+k)%5)*9)
			addRec(t, store, seg, "x", midday(-180+40*k+i), 25+float64(i%3)*7)
		}
	}
	w, err := NewWiLocator(net, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(rawArc uint16, rawMin uint16) bool {
		fromArc := float64(rawArc)/65535*route.Length()*1.1 - 20
		at := midday(int(rawMin%900) - 450)
		want := map[int]time.Time{}
		for m := 0; m < route.NumStops(); m++ {
			if eta, err := w.PredictArrival("r", fromArc, at, m); err == nil {
				want[m] = eta
			}
		}
		got := map[int]time.Time{}
		last := -1
		ok := true
		err := w.ForEachStopAhead("r", fromArc, at, func(m int, eta time.Time, err error) {
			if err != nil || m <= last {
				ok = false
			}
			last = m
			got[m] = eta
		})
		if err != nil || !ok || len(got) != len(want) {
			return false
		}
		for m, eta := range want {
			if g, found := got[m]; !found || !g.Equal(eta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if err := w.ForEachStopAhead("nope", 0, midday(0), func(int, time.Time, error) {}); err == nil {
		t.Error("unknown route accepted")
	}
}
