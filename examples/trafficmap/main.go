// Trafficmap: reproduce the paper's Fig. 11 scenario with the public API —
// train a system on fleet history, inject a rush-hour road incident, replay
// the morning, and compare the traffic map before/during the incident. The
// trajectory of a bus crawling through the incident is fed to the anomaly
// detector (Fig. 6) to localise the site.
//
// Run with:
//
//	go run ./examples/trafficmap
package main

import (
	"fmt"
	"log"
	"time"

	"wilocator"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net, err := wilocator.BuildVancouverNetwork()
	if err != nil {
		return err
	}
	dep, err := wilocator.DeployAPs(net, wilocator.DefaultDeploySpec(), 42)
	if err != nil {
		return err
	}
	clock := time.Date(2016, 3, 7, 8, 0, 0, 0, time.UTC)
	cfg := wilocator.Config{}
	cfg.Server.Now = func() time.Time { return clock }
	sys, err := wilocator.New(net, dep, cfg)
	if err != nil {
		return err
	}

	// Offline training: three weekdays of history.
	field := wilocator.NewCongestion(7)
	for d := 0; d < 3; d++ {
		day := clock.AddDate(0, 0, -7+d)
		for _, route := range net.Routes() {
			departures, err := wilocator.Timetable(route, day, wilocator.TimetableSpec{})
			if err != nil {
				return err
			}
			for i, dep := range departures {
				trip, err := wilocator.DriveTrip(net, route.ID(), dep, wilocator.DriveConfig{}, field, nil, uint64(d*100000+i))
				if err != nil {
					return err
				}
				trs, err := wilocator.TripTraversals(net, trip)
				if err != nil {
					return err
				}
				for _, tr := range trs {
					if err := sys.AddTravelTime(tr.Seg, tr.RouteID, tr.Enter, tr.Exit); err != nil {
						return err
					}
				}
			}
		}
	}

	// Today: an accident blocks a corridor segment of route 9 from 8:10.
	route, _ := net.Route("9")
	segIdx := route.NumSegments() / 3
	segID := route.SegmentID(segIdx)
	incident := wilocator.Incident{
		Seg:        segID,
		Start:      clock.Add(10 * time.Minute),
		End:        clock.Add(2 * time.Hour),
		SlowFactor: 6,
		ArcStart:   0,
		ArcEnd:     route.SegmentEndArc(segIdx) - route.SegmentStartArc(segIdx),
	}
	fmt.Printf("incident injected on segment %d (arc %.0f-%.0f m of route 9) from %s\n",
		segID, route.SegmentStartArc(segIdx), route.SegmentEndArc(segIdx),
		incident.Start.Format("15:04"))

	// Replay today's rush-hour fleet, feeding ground-truth segment times in
	// completion order (the tracked crossings of the live pipeline carry
	// the same information; see examples/cityfleet for the full HTTP loop).
	type timedRec struct {
		tr wilocator.TripTraversal
	}
	var pending []timedRec
	var incidentBusTraj []wilocator.TrajectoryPoint
	for _, r := range net.Routes() {
		departures, err := wilocator.Timetable(r, clock, wilocator.TimetableSpec{})
		if err != nil {
			return err
		}
		for i, dep := range departures {
			if dep.Before(clock.Add(-90*time.Minute)) || dep.After(clock.Add(80*time.Minute)) {
				continue
			}
			trip, err := wilocator.DriveTrip(net, r.ID(), dep, wilocator.DriveConfig{},
				field, []wilocator.Incident{incident}, uint64(900000+i))
			if err != nil {
				return err
			}
			trs, err := wilocator.TripTraversals(net, trip)
			if err != nil {
				return err
			}
			for _, tr := range trs {
				pending = append(pending, timedRec{tr: tr})
			}
			// Track the 8:20 route-9 bus through the incident with the full
			// crowd-sensing pipeline to demonstrate anomaly localisation.
			if r.ID() == "9" && dep.Sub(clock) == 20*time.Minute {
				traj, err := trackThroughIncident(net, trip, sys)
				if err != nil {
					return err
				}
				incidentBusTraj = traj
			}
		}
	}

	// Stream the records completed by 9:10 and render the map.
	clock = clock.Add(70 * time.Minute)
	fed := 0
	for _, p := range pending {
		if p.tr.Exit.After(clock) {
			continue
		}
		if err := sys.AddTravelTime(p.tr.Seg, p.tr.RouteID, p.tr.Enter, p.tr.Exit); err != nil {
			return err
		}
		fed++
	}
	fmt.Printf("replayed rush hour: %d live segment times by %s\n", fed, clock.Format("15:04"))

	tm, err := sys.TrafficMap("9")
	if err != nil {
		return err
	}
	fmt.Printf("\nroute 9 traffic map at %s ('-' normal, 's' slow, 'S' very slow):\n%s\n",
		clock.Format("15:04"), tm.Strip)
	for _, st := range tm.Segments {
		if st.Seg == segID {
			fmt.Printf("incident segment %d classified %q (z = %.2f)\n", st.Seg, st.Condition, st.Z)
		}
	}

	// Anomaly localisation from the tracked bus's trajectory.
	var exclude []float64
	for _, stop := range route.Stops() {
		exclude = append(exclude, stop.Arc)
	}
	anomalies := wilocator.DetectAnomalies(incidentBusTraj, 22, 4, exclude, 30)
	fmt.Printf("\ntrajectory anomalies of the 8:20 bus (%d fixes):\n", len(incidentBusTraj))
	for _, a := range anomalies {
		fmt.Printf("  crawl between %.0f m and %.0f m, %s to %s\n",
			a.StartArc, a.EndArc, a.Start.Format("15:04:05"), a.End.Format("15:04:05"))
	}
	fmt.Printf("(ground-truth incident zone: %.0f-%.0f m)\n",
		route.SegmentStartArc(segIdx), route.SegmentEndArc(segIdx))
	return nil
}

// trackThroughIncident runs the crowd-sensing pipeline for one trip and
// returns the tracked trajectory.
func trackThroughIncident(net *wilocator.Network, trip *wilocator.Trip, sys *wilocator.System) ([]wilocator.TrajectoryPoint, error) {
	deployment := sys.Diagram().Deployment()
	phones, err := wilocator.NewRiderPhones("incident-bus", 5, deployment, wilocator.PhoneConfig{}, 77)
	if err != nil {
		return nil, err
	}
	pos, err := wilocator.NewPositioner(sys.Diagram(), sys.Diagram().Order())
	if err != nil {
		return nil, err
	}
	tracker, err := wilocator.NewTracker(pos, trip.RouteID(), wilocator.TrackerConfig{})
	if err != nil {
		return nil, err
	}
	route, _ := net.Route(trip.RouteID())
	for at := trip.Start(); !trip.Done(at) && at.Sub(trip.Start()) < 75*time.Minute; at = at.Add(wilocator.ScanPeriod) {
		p := route.PointAt(trip.ArcAt(at))
		var scans []wilocator.Scan
		for _, ph := range phones {
			if s, ok := ph.ScanAt(p, at); ok {
				scans = append(scans, s)
			}
		}
		if len(scans) == 0 {
			continue
		}
		// No-fix cycles are skipped exactly as the live server does.
		_, _, _ = tracker.Observe(wilocator.FuseScans(scans))
	}
	return tracker.Trajectory(), nil
}
