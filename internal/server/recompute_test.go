package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/predict"
	"wilocator/internal/roadnet"
	"wilocator/internal/trafficmap"
)

// This file keeps the pre-snapshot lock path as the reference
// implementation of every read product: each Recompute* method walks the
// live bus table under per-bus locks and derives its product at call time,
// per stop and per bus, with none of the publisher's sharing. The
// snapshot-equivalence tests compare the incremental publisher against it,
// and the read benchmarks time it as the cold cost a cached GET avoids.

// RecomputeVehicles derives the live-vehicle list (optionally of one route)
// at call time.
func (s *Service) RecomputeVehicles(routeID string) []api.VehicleStatus {
	now := s.cfg.Now()
	var out []api.VehicleStatus
	s.buses.forEach(func(id string, bs *busState) {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		if routeID != "" && bs.routeID != routeID {
			return
		}
		if bs.done || now.Sub(bs.lastUpdate) > s.cfg.StaleAfter {
			return
		}
		arc, ok := bs.tracker.Arc()
		if !ok {
			return
		}
		speed, _ := bs.tracker.Speed()
		out = append(out, api.VehicleStatus{
			BusID:   id,
			RouteID: bs.routeID,
			Arc:     arc,
			Pos:     bs.tracker.Route().PointAt(arc),
			Speed:   speed,
			Updated: bs.lastUpdate,
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].BusID < out[j].BusID })
	return out
}

// RecomputeArrivals predicts one (route, stop) arrival table over
// RecomputeVehicles at call time, one PredictArrival per vehicle.
func (s *Service) RecomputeArrivals(routeID string, stopIdx int) ([]api.ArrivalEstimate, error) {
	route, err := s.checkStop(routeID, stopIdx)
	if err != nil {
		return nil, err
	}
	return s.predictStop(route, routeID, s.RecomputeVehicles(routeID), stopIdx)
}

// predictStop runs the arrival prediction of one (route, stop) over the
// given vehicles, walking the route separately for each.
func (s *Service) predictStop(route *roadnet.Route, routeID string, vehicles []api.VehicleStatus, stopIdx int) ([]api.ArrivalEstimate, error) {
	var out []api.ArrivalEstimate
	for _, v := range vehicles {
		eta, err := s.pred.PredictArrival(routeID, v.Arc, v.Updated, stopIdx)
		if err != nil {
			if errors.Is(err, predict.ErrStopBehind) {
				continue
			}
			return nil, err
		}
		out = append(out, api.ArrivalEstimate{
			BusID:     v.BusID,
			RouteID:   routeID,
			StopIndex: stopIdx,
			StopName:  route.Stops()[stopIdx].Name,
			ETA:       eta,
		})
	}
	return out, nil
}

// RecomputeTrafficMap classifies the network (or one route) at call time.
func (s *Service) RecomputeTrafficMap(routeID string) (api.TrafficMapResponse, error) {
	now := s.cfg.Now()
	var statuses []trafficmap.SegmentStatus
	if routeID == "" {
		statuses = s.tmap.Map(now)
	} else {
		var err error
		statuses, err = s.tmap.MapForRoute(routeID, now)
		if err != nil {
			return api.TrafficMapResponse{}, err
		}
	}
	return api.TrafficMapResponse{
		GeneratedAt: now,
		Segments:    statuses,
		Strip:       trafficmap.Render(statuses),
	}, nil
}

// RecomputeTrajectory reads the bus's tracker under its lock at call time.
func (s *Service) RecomputeTrajectory(busID string) (api.TrajectoryResponse, error) {
	bs := s.buses.get(busID)
	if bs == nil {
		return api.TrajectoryResponse{}, fmt.Errorf("server: unknown bus %q", busID)
	}
	bs.mu.Lock()
	registered := bs.tracker != nil
	routeID := bs.routeID
	var traj []locate.TrajectoryPoint
	if registered {
		traj = bs.tracker.Trajectory()
	}
	bs.mu.Unlock()
	if !registered {
		return api.TrajectoryResponse{}, fmt.Errorf("server: unknown bus %q", busID)
	}
	out := api.TrajectoryResponse{BusID: busID, RouteID: routeID}
	for _, p := range traj {
		ll := s.proj.ToLatLng(p.Pos)
		out.Fixes = append(out.Fixes, api.TrajectoryFix{Lat: ll.Lat, Lng: ll.Lng, Time: p.Time, Arc: p.Arc})
	}
	return out, nil
}

// RecomputeAnomalies captures each live bus under its own lock at call time
// and runs the detection over the result, building each route's exclusion
// arcs afresh.
func (s *Service) RecomputeAnomalies(routeID string) ([]api.AnomalyReport, error) {
	if routeID != "" {
		if _, ok := s.net.Route(routeID); !ok {
			return nil, fmt.Errorf("server: unknown route %q", routeID)
		}
	}
	now := s.cfg.Now()
	type capture struct {
		id, routeID string
		lastUpdate  time.Time
		traj        []locate.TrajectoryPoint
	}
	var caps []capture
	s.buses.forEach(func(id string, bs *busState) {
		bs.mu.Lock()
		defer bs.mu.Unlock()
		if bs.tracker == nil {
			return
		}
		if routeID != "" && bs.routeID != routeID {
			return
		}
		caps = append(caps, capture{id: id, routeID: bs.routeID, lastUpdate: bs.lastUpdate, traj: bs.tracker.Trajectory()})
	})
	sort.Slice(caps, func(i, j int) bool { return caps[i].id < caps[j].id })

	var out []api.AnomalyReport
	for _, b := range caps {
		if now.Sub(b.lastUpdate) > s.cfg.StaleAfter {
			continue
		}
		route, ok := s.net.Route(b.routeID)
		if !ok {
			continue
		}
		delta := trafficmap.DeltaFromHistory(s.routeMeanSpeed(route), s.cfg.FusionWindow, 0)
		var exclude []float64
		for _, stop := range route.Stops() {
			exclude = append(exclude, stop.Arc)
		}
		for i := 0; i < route.NumSegments(); i++ {
			if seg, _ := s.net.Graph.Segment(route.Segments()[i]); seg != nil && seg.Signal {
				exclude = append(exclude, route.SegmentEndArc(i))
			}
		}
		for _, a := range trafficmap.DetectAnomalies(b.traj, delta, anomalyMinPoints, exclude, 30) {
			center := (a.StartArc + a.EndArc) / 2
			out = append(out, api.AnomalyReport{
				BusID:    b.id,
				RouteID:  b.routeID,
				StartArc: a.StartArc,
				EndArc:   a.EndArc,
				Start:    a.Start,
				End:      a.End,
				Pos:      route.PointAt(center),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RouteID != out[j].RouteID {
			return out[i].RouteID < out[j].RouteID
		}
		return out[i].StartArc < out[j].StartArc
	})
	return out, nil
}

// referenceProducts is the from-scratch full-rebuild publisher: every read
// product of the current state rendered through the Recompute* path, keyed
// as snapshotProducts keys the served snapshot's.
func (s *Service) referenceProducts() map[string][]byte {
	out := make(map[string][]byte)
	keys := []string{""}
	for _, rt := range s.net.Routes() {
		keys = append(keys, rt.ID())
	}
	for _, key := range keys {
		out["vehicles/"+key] = renderVehicles(s.RecomputeVehicles(key))
		tm, err := s.RecomputeTrafficMap(key)
		if err != nil {
			panic(err)
		}
		out["trafficmap/"+key] = marshalBody(tm)
	}
	for _, rt := range s.net.Routes() {
		for stop := 0; stop < rt.NumStops(); stop++ {
			key := fmt.Sprintf("arrivals/%s/%d", rt.ID(), stop)
			ests, err := s.RecomputeArrivals(rt.ID(), stop)
			switch {
			case err != nil:
				out[key] = []byte("error: " + err.Error())
			case ests == nil:
				out[key] = nullBody
			default:
				out[key] = marshalBody(ests)
			}
		}
	}
	var ids []string
	s.buses.forEach(func(id string, bs *busState) { ids = append(ids, id) })
	for _, id := range ids {
		if tr, err := s.RecomputeTrajectory(id); err == nil {
			out["trajectory/"+id] = marshalBody(tr)
		}
	}
	an, err := s.RecomputeAnomalies("")
	if err != nil {
		panic(err)
	}
	out["anomalies"] = marshalBody(an)
	return out
}

// snapshotProducts renders every product of a published snapshot under the
// keys referenceProducts uses: the pre-rendered bodies as served, and the
// JSON of the products served as values.
func snapshotProducts(snap *readSnapshot) map[string][]byte {
	out := make(map[string][]byte)
	for key, body := range snap.vehiclesBody {
		out["vehicles/"+key] = body
	}
	for key, cell := range snap.tmaps {
		out["trafficmap/"+key] = cell.body
	}
	for route, cells := range snap.arrivals {
		for stop, cell := range cells {
			key := fmt.Sprintf("arrivals/%s/%d", route, stop)
			if cell.err != nil {
				out[key] = []byte("error: " + cell.err.Error())
			} else {
				out[key] = cell.body
			}
		}
	}
	for _, e := range snap.buses {
		out["trajectory/"+e.id] = marshalBody(e.trajectory)
	}
	out["anomalies"] = marshalBody(snap.anomalies)
	return out
}
