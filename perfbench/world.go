package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/scenario"
)

// cyclePeriod shifts the report times of each replay cycle of a world. A
// whole day keeps every travel-time record in the same hour slot and makes
// every bus of the previous cycle stale, so the 1-minute eviction sweep
// clears it and the live bus table stays the size of one cycle's fleet.
const cyclePeriod = 24 * time.Hour

// evictEvery is cmd/wilocator-server's default eviction cadence, applied in
// scenario time.
const evictEvery = time.Minute

// world is a compiled scenario turned into an endless, seeded event source:
// cycle c replays the compiled stream with report times shifted by
// c*cyclePeriod and bus IDs suffixed "~c", so a long run never repeats a bus
// and never runs dry. Events are addressed by a global sequence number
// g = cycle*n + index into the compiled stream; every workload sends them
// in that order from one generator, so each bus's order holds end to end.
type world struct {
	c     *scenario.Compiled
	n     int64
	first time.Time // delivery time of the first compiled event
	hash  string

	// ids caches one cycle's bus IDs, per compiled bus: events are sent
	// and checked in cycle order, and a cache of every cycle would grow with
	// the run.
	mu      sync.Mutex
	idCycle int
	ids     []string
}

func newWorld(c *scenario.Compiled) (*world, error) {
	if len(c.Events) == 0 {
		return nil, fmt.Errorf("scenario %q compiled to no events", c.Spec.Name)
	}
	first := c.Events[0].Deliver
	if span := c.End.Sub(first); span+5*time.Minute >= cyclePeriod {
		return nil, fmt.Errorf("scenario %q spans %v; cycles need under %v", c.Spec.Name, span, cyclePeriod-5*time.Minute)
	}
	return &world{c: c, n: int64(len(c.Events)), first: first, hash: eventHash(c)}, nil
}

func (w *world) split(g int64) (cycle int, idx int) { return int(g / w.n), int(g % w.n) }

// busID is the ID bus b reports under in the given cycle.
func (w *world) busID(cycle, b int) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ids == nil || w.idCycle != cycle {
		w.idCycle = cycle
		w.ids = make([]string, len(w.c.Buses))
		for i, bus := range w.c.Buses {
			w.ids[i] = bus.ID
			if cycle > 0 {
				w.ids[i] = fmt.Sprintf("%s~%d", bus.ID, cycle)
			}
		}
	}
	return w.ids[b]
}

// report builds the report of event g. The readings are shared with the
// compiled stream and must not be mutated.
func (w *world) report(g int64) api.Report {
	cycle, i := w.split(g)
	ev := &w.c.Events[i]
	rep := ev.Report
	if cycle > 0 {
		rep.Scan.Time = rep.Scan.Time.Add(time.Duration(cycle) * cyclePeriod)
		if ev.BusIdx >= 0 {
			rep.BusID = w.busID(cycle, ev.BusIdx)
		}
	}
	return rep
}

// deliver is event g's delivery instant in scenario (report) time.
func (w *world) deliver(g int64) time.Time {
	cycle, i := w.split(g)
	return w.c.Events[i].Deliver.Add(time.Duration(cycle) * cyclePeriod)
}

// busOf returns the ID event g's bus reports under.
func (w *world) busOf(g int64) string {
	cycle, i := w.split(g)
	if b := w.c.Events[i].BusIdx; b >= 0 {
		return w.busID(cycle, b)
	}
	return w.c.Events[i].Report.BusID
}

// eventHash digests the compiled event stream and churn schedule: equal
// seeds must give equal hashes, across runs and processes.
func eventHash(c *scenario.Compiled) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, ev := range c.Events {
		put(ev.Deliver.UnixNano())
		put(int64(ev.BusIdx))
		h.Write([]byte(ev.Kind))
		b, err := json.Marshal(ev.Report)
		if err != nil {
			panic(err) // api.Report is plain data
		}
		h.Write(b)
	}
	for _, wv := range c.Waves {
		put(wv.At.UnixNano())
		for _, d := range wv.Dead {
			h.Write([]byte(d))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sortedUnique sorts gs and drops duplicates.
func sortedUnique(gs []int64) []int64 {
	sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
	out := gs[:0]
	for i, g := range gs {
		if i == 0 || g != gs[i-1] {
			out = append(out, g)
		}
	}
	return out
}
