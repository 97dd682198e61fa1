package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/client"
	"wilocator/internal/scenario"
	"wilocator/internal/traveltime"
	"wilocator/internal/wifi"
)

// writeOp is one ingest request: a batch frame or a single-report POST
// carrying events [P0, P1).
type writeOp struct {
	P0, P1 int64
	// Due is when the open-loop schedule wanted the request sent (zero for
	// warm-up frames, sent back to back); Done is when its acknowledgement
	// arrived.
	Due, Sent, Done time.Time
	Warm            bool // warm-up traffic: replayed and checked, not timed
	Single          bool
	// Watched marks a request whose fixes count toward fix_visible: a rider
	// read follows it at once, or a stream follows its route.
	Watched bool
	Resp    api.BatchResponse
	One     api.IngestResponse
	Err     string // the request failed: transport error or refusal
}

func (op *writeOp) failed() bool { return op.Err != "" }

// start is the instant the request's latency counts from: its due time
// when the generator sent it late (so a stall counts against every request
// queued behind it), else the instant it was sent.
func (op *writeOp) start() time.Time { return startOf(op.Due, op.Sent) }

func startOf(due, sent time.Time) time.Time {
	if !due.IsZero() && due.Before(sent) {
		return due
	}
	return sent
}

// action is a deployment change the generator applied before sending
// event g: a churn wave, or the reactivation of every AP at a cycle start.
type action struct {
	g    int64
	wave int // index into the compiled waves; -1 restores every AP
}

// observation is one rider-visible sighting of a bus at a new fix.
type observation struct {
	At  time.Time
	Bus string
	Arc float64
}

// tornDepth is how many recent ETags per path the torn-read check keeps.
// A read serves the current epoch or, losing the publish race, the one
// before it, so an older ETag never comes back.
const tornDepth = 16

// etagRing holds the body hashes of a path's most recent ETags.
type etagRing struct {
	tags   [tornDepth]string
	hashes [tornDepth]uint64
	next   int
}

// check records that etag served a body hashing to h and reports whether
// the same ETag served another body before.
func (e *etagRing) check(etag string, h uint64) (torn bool) {
	for i, t := range e.tags {
		if t == etag {
			return e.hashes[i] != h
		}
	}
	e.tags[e.next], e.hashes[e.next] = etag, h
	e.next = (e.next + 1) % tornDepth
	return false
}

// readClass counts the rider reads of one kind.
type readClass struct{ n, ok, nonEmpty int }

// conn is one load connection: an HTTP client whose transport keeps at
// most one TCP connection and counts what crosses it.
type conn struct {
	hc                      *http.Client
	tr                      *tracer
	base                    http.RoundTripper
	dials, reqs, batchReqs  atomic.Int64
	s429, s503, s5xx, terrs atomic.Int64
}

func (c *conn) RoundTrip(req *http.Request) (*http.Response, error) {
	c.reqs.Add(1)
	if req.URL.Path == api.PathReportsBatch {
		c.batchReqs.Add(1)
	}
	var sp span
	if c.tr != nil {
		sp = c.tr.begin(clientSpanName(req), 0, 0)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.base.RoundTrip(req)
	c.tr.finish(sp)
	if err != nil {
		c.terrs.Add(1)
		return resp, err
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		c.s429.Add(1)
	case resp.StatusCode == http.StatusServiceUnavailable:
		c.s503.Add(1)
	case resp.StatusCode >= 500:
		c.s5xx.Add(1)
	}
	return resp, nil
}

func clientSpanName(req *http.Request) string {
	switch req.URL.Path {
	case api.PathReportsBatch:
		return "client.batch"
	case api.PathReports:
		return "client.post"
	case api.PathMetrics:
		return "client.scrape"
	case api.PathStream:
		return "client.stream"
	}
	return "client.get"
}

// run is one pass of a workload over a rig: the load, and everything the
// load saw.
type run struct {
	*rig
	wl *workload
	// streamRoute is the route the SSE subscriber follows, "" without one.
	streamRoute string
	seed        uint64
	dur         time.Duration
	start       time.Time
	// plant is an event the generator silently leaves out while
	// logging it as sent: the planted fault the correctness check must
	// catch. -1 plants nothing.
	plant int64

	goroutines atomic.Int32
	retries    atomic.Int64
	heapPeak   atomic.Uint64

	// heap_peak_mb samples the heap the server and the generator share, so
	// the generator's memory stays bounded: its request and sighting logs
	// go to disk during the load (writes and obs are read back after it),
	// the torn-read check keeps recent ETags only, and the travel-time
	// records are read back from the WAL.
	mu          sync.Mutex
	conns       []*conn
	writeLog    *spool[writeOp]
	obsLog      *spool[observation]
	writes      []writeOp
	obs         []observation
	actions     []action
	getLat      *series                         // µs, from due
	rebuilds    sample                          // s per svd rebuild
	streamLag   sample                          // ms, traced runs
	sighted     map[string]map[string]time.Time // per read path: bus -> fix time last read
	classes     map[string]*readClass
	torn        map[string]*etagRing // by path
	records     []traveltime.Record  // the live WAL, read back after the load
	cpuS        float64              // process CPU seconds over the measured load
	allocB      float64              // bytes the process allocated over the measured load
	tornReads   int
	notModified int
	readFails   int
	streamEvs   int
	streamErr   error
}

var bodySeed = maphash.MakeSeed()

func newRun(rg *rig, wl *workload, seed uint64, dur time.Duration, plant int64) (*run, error) {
	r := &run{rig: rg, wl: wl, seed: seed, dur: dur, plant: plant,
		sighted: map[string]map[string]time.Time{}, classes: map[string]*readClass{}, torn: map[string]*etagRing{}}
	var err error
	if r.writeLog, err = newSpool[writeOp](filepath.Join(rg.dir, "writes.gob")); err != nil {
		return nil, err
	}
	if r.obsLog, err = newSpool[observation](filepath.Join(rg.dir, "sightings.gob")); err != nil {
		r.writeLog.close()
		return nil, err
	}
	return r, nil
}

// readLogs reads the spooled request and sighting logs back once the load
// is over, and closes them.
func (r *run) readLogs() error {
	var err error
	if r.writes, err = r.writeLog.readAll(); err == nil {
		r.obs, err = r.obsLog.readAll()
	}
	return errors.Join(err, r.writeLog.close(), r.obsLog.close())
}

// begin starts the measured load: the clocks of every timed figure and
// the process CPU and allocation accounts.
func (r *run) begin() {
	r.start = time.Now()
	r.getLat = newSeries(r.start, r.dur)
	r.cpuS = -cpuSeconds()
	r.allocB = -allocBytes()
}

// end closes the measured load's CPU and allocation accounts.
func (r *run) end() {
	r.cpuS += cpuSeconds()
	r.allocB += allocBytes()
}

// allocBytes is the heap memory the process has allocated since it
// started. Unlike any timing, it does not change with the speed of the
// machine.
func allocBytes() float64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// cpuSeconds is the process's user and system CPU time. Kernel accounting
// leaves out the time a hypervisor steals from a virtual machine, which
// wall-clock figures include.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// newConn opens a load connection; timeout 0 means none (streams).
func (r *run) newConn(timeout time.Duration) *conn {
	c := &conn{tr: r.tr}
	d := &net.Dialer{}
	c.base = &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	c.hc = &http.Client{Transport: c, Timeout: timeout}
	r.mu.Lock()
	r.conns = append(r.conns, c)
	r.mu.Unlock()
	return c
}

// typed returns the typed API client over c, its retry waits counted.
func (r *run) typed(c *conn) *client.Client {
	cl, err := client.NewWithRetry(r.base, c.hc, client.RetryConfig{
		Sleep: func(ctx context.Context, d time.Duration) error {
			r.retries.Add(1)
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	})
	if err != nil {
		panic(err) // r.base is always a valid loopback URL
	}
	return cl
}

// goLoad starts one load goroutine; the workload's total is checked
// against the core count when the run ends.
func (r *run) goLoad(wg *sync.WaitGroup, fn func()) {
	r.goroutines.Add(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}

func (r *run) elapsed() time.Duration { return time.Since(r.start) }

// reports fills buf with the reports of events [p0, p1), leaving out the
// planted one.
func (r *run) reports(p0, p1 int64, buf []api.Report) []api.Report {
	buf = buf[:0]
	for p := p0; p < p1; p++ {
		if p != r.plant {
			buf = append(buf, r.w.report(p))
		}
	}
	return buf
}

// postFrame sends the batch frame of events [op.P0, op.P1) and logs it.
func (r *run) postFrame(cl *client.Client, op writeOp, buf []api.Report) []api.Report {
	buf = r.reports(op.P0, op.P1, buf)
	op.Sent = time.Now()
	var err error
	op.Resp, err = cl.PostReportBatch(context.Background(), buf)
	op.Done = time.Now()
	op.Resp.Items = nil // the counts carry every verdict the check needs
	if r.plant >= op.P0 && r.plant < op.P1 {
		op.Resp.Received++ // the generator pretends the planted report went out
	}
	r.logWrite(&op, err)
	return buf
}

// lateness is how many ms each open-loop request went out after it was
// due.
func (r *run) lateness() sample {
	var late sample
	for _, op := range r.writes {
		if !op.Warm && !op.Due.IsZero() {
			late = append(late, max(0, float64(op.Sent.Sub(op.Due))/1e6))
		}
	}
	return late
}

func (r *run) logWrite(op *writeOp, err error) {
	if err != nil {
		op.Err = err.Error()
	}
	r.mu.Lock()
	r.writeLog.add(op)
	r.mu.Unlock()
}

// lookahead is how early an open-loop generator may send. The runtime's
// timers wake at millisecond granularity, so a generator sleeping to each
// due instant would run up to a millisecond late on every request and
// charge that to the server; waking a millisecond ahead and timing early
// requests from their send keeps the generator's own jitter out.
const lookahead = time.Millisecond

// waitUntil sleeps until about lookahead before t.
func waitUntil(t time.Time) {
	if d := time.Until(t) - lookahead; d > 0 {
		time.Sleep(d)
	}
}

// get issues one rider GET, timed from due, and checks it: a 200 must
// carry an ETag whose body never changes (no torn read), a 304 no body.
// Vehicle lists become observations for the freshness figures.
func (r *run) get(c *conn, class, path, inm string, due time.Time) (etag string) {
	req, err := http.NewRequest(http.MethodGet, r.base+path, nil)
	if err != nil {
		panic(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	var body []byte
	start := startOf(due, time.Now())
	resp, err := c.hc.Do(req)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	rc := r.classes[class]
	if rc == nil {
		rc = &readClass{}
		r.classes[class] = rc
	}
	rc.n++
	if class != "scrape" {
		r.getLat.add(done, float64(done.Sub(start))/1e3)
	}
	switch {
	case err != nil:
		r.readFails++
		return ""
	case resp.StatusCode == http.StatusNotModified:
		rc.ok++
		r.notModified++
		if len(body) != 0 {
			r.tornReads++
		}
		return inm
	case resp.StatusCode != http.StatusOK:
		r.readFails++
		return ""
	}
	rc.ok++
	etag = resp.Header.Get("ETag")
	if class == "scrape" {
		if len(body) > 0 {
			rc.nonEmpty++
		}
		return ""
	}
	if etag == "" {
		r.tornReads++
		return ""
	}
	ring := r.torn[path]
	if ring == nil {
		ring = &etagRing{}
		r.torn[path] = ring
	}
	if ring.check(etag, maphash.Bytes(bodySeed, body)) {
		r.tornReads++
	}
	s := strings.TrimSpace(string(body))
	if s != "null" && s != "[]" && s != "" {
		rc.nonEmpty++
	}
	if class == "vehicles" {
		var vs []api.VehicleStatus
		if json.Unmarshal(body, &vs) == nil {
			prev := r.sighted[path]
			seen := make(map[string]time.Time, len(vs))
			for _, v := range vs {
				seen[v.BusID] = v.Updated
				if t, ok := prev[v.BusID]; !ok || !t.Equal(v.Updated) {
					r.obsLog.add(&observation{At: done, Bus: v.BusID, Arc: v.Arc})
				}
			}
			r.sighted[path] = seen
		}
	}
	return etag
}

// sampleHeap tracks the peak live heap of the process: the heap the last
// garbage collection found reachable. The in-use figure including
// not-yet-collected garbage swings with GC timing and would make the peak
// a coin toss.
func (r *run) sampleHeap() {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := r.heapPeak.Load()
		if v <= cur || r.heapPeak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ticker throttles a periodic side task run inline by a load goroutine.
type ticker struct {
	every time.Duration
	next  time.Time
}

func (t *ticker) due(now time.Time) bool {
	if now.Before(t.next) {
		return false
	}
	t.next = now.Add(t.every)
	return true
}

// --- fleet-batch -----------------------------------------------------

const (
	fleetFrame = 256     // reports per NDJSON frame: client.BatchSender's default
	fleetRate  = 30000.0 // reports per second, open loop
	fleetRead  = 50.0    // vehicle-list reads per second, each right after a frame
)

// driveFleetBatch sends the whole fleet's reports as batch frames at a
// fixed rate from one uploader, so per-bus order holds end to end. Fifty
// times a second the uploader reads the vehicle list as soon as a frame is
// acknowledged.
func driveFleetBatch(r *run) error {
	r.begin()
	r.goroutines.Add(1) // this uploader
	c := r.newConn(30 * time.Second)
	cl := r.typed(c)
	heap := ticker{every: 20 * time.Millisecond}
	reads := 0
	var buf []api.Report
	for p := int64(0); ; p += fleetFrame {
		due := r.start.Add(time.Duration(float64(p) / fleetRate * 1e9))
		if !due.Before(r.start.Add(r.dur)) {
			break
		}
		waitUntil(due)
		watch := r.readDue(reads, fleetRead)
		buf = r.postFrame(cl, writeOp{P0: p, P1: p + fleetFrame, Due: due, Watched: watch}, buf)
		r.advance(r.w.deliver(p + fleetFrame - 1))
		if watch {
			r.get(c, "vehicles", api.PathVehicles, "", time.Time{})
			r.sampleRing() // after a fresh read, so rendering publishes nothing
			reads++
		}
		if heap.due(time.Now()) {
			r.sampleHeap()
		}
	}
	r.end()
	return nil
}

// readDue reports whether the n-th follow-up read of a rate-per-second
// series is due. A follow-up read goes out the moment the frame before it
// is acknowledged, so the fixes in that frame become visible to a rider
// after the server's ack and publish, never after a polling interval: they
// are the ones fix_visible counts.
func (r *run) readDue(n int, rate float64) bool {
	return r.elapsed() >= time.Duration(float64(n)/rate*1e9)
}

// --- rider-mix -------------------------------------------------------

const (
	riderWarm       = 12 * time.Minute // scenario time ingested before timing: the fleet ramps up
	riderWriteRate  = 50.0             // single-report POSTs per second
	riderReadRate   = 9 * riderWriteRate
	riderScrapeRate = 2.0
	riderRevalidate = 5 // every 5th read revalidates with If-None-Match
)

// driveRiderMix replays the radial city's phone reports as single POSTs in
// delivery order, compressed to one fixed rate of riderWriteRate a second
// (the scenario's phones scan in lockstep; replaying their bursts over one
// connection would time the generator's queue, not the server), while
// riders read at nine times that rate and one SSE subscriber follows a hub
// route. Writes, reads and scrapes share one open-loop generator and
// connection; the stream has the second.
func driveRiderMix(r *run) error {
	c := r.newConn(30 * time.Second)
	cl := r.typed(c)

	// Warm-up: the opening of the service window, as fast batch frames, so
	// the timed part starts with the fleet at its working size.
	var p int64
	var buf []api.Report
	for r.w.deliver(p).Before(r.w.first.Add(riderWarm)) {
		end := p
		for end < p+fleetFrame && r.w.deliver(end).Before(r.w.first.Add(riderWarm)) {
			end++
		}
		buf = r.postFrame(cl, writeOp{P0: p, P1: end, Warm: true}, buf)
		r.advance(r.w.deliver(end - 1))
		p = end
	}

	// The rider read rotation: per route its vehicles, two stops' arrivals
	// and its traffic map, then the whole network's vehicles and map.
	type target struct{ class, path string }
	routes := r.w.c.Net.Routes()
	var targets []target
	for _, rt := range routes {
		id := rt.ID()
		targets = append(targets,
			target{"vehicles", api.PathVehicles + "?route=" + id},
			target{"arrivals", fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, id, 1)},
			target{"trafficmap", api.PathTrafficMap + "?route=" + id},
			target{"arrivals", fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, id, rt.NumStops()/2)},
		)
	}
	targets = append(targets, target{"vehicles", api.PathVehicles}, target{"trafficmap", api.PathTrafficMap})

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	r.streamRoute = routes[0].ID()
	r.goLoad(&wg, func() { r.subscribe(ctx, r.streamRoute) })

	r.begin()
	r.goroutines.Add(1) // this generator
	lastTag := map[string]string{}
	heap := ticker{every: 20 * time.Millisecond}
	nextW := p
	var nReads, nScrapes int
	for {
		dueW := r.start.Add(time.Duration(float64(nextW-p) / riderWriteRate * 1e9))
		dueR := r.start.Add(time.Duration(float64(nReads) / riderReadRate * 1e9))
		dueS := r.start.Add(time.Duration(float64(nScrapes) / riderScrapeRate * 1e9))
		end := r.start.Add(r.dur)
		if !dueW.Before(end) && !dueR.Before(end) && !dueS.Before(end) {
			break
		}
		switch {
		case dueW.Before(end) && !dueW.After(dueR) && !dueW.After(dueS):
			waitUntil(dueW)
			op := writeOp{P0: nextW, P1: nextW + 1, Due: dueW, Single: true, Watched: true}
			op.Sent = time.Now()
			var err error
			if nextW != r.plant {
				op.One, err = cl.PostReport(context.Background(), r.w.report(nextW))
			}
			op.Done = time.Now()
			r.logWrite(&op, err)
			r.advance(r.w.deliver(nextW))
			nextW++
		case dueR.Before(end) && !dueR.After(dueS):
			waitUntil(dueR)
			t := targets[nReads%len(targets)]
			inm := ""
			if nReads%riderRevalidate == riderRevalidate-1 {
				inm = lastTag[t.path]
			}
			if tag := r.get(c, t.class, t.path, inm, dueR); tag != "" {
				lastTag[t.path] = tag
			}
			nReads++
		default:
			waitUntil(dueS)
			r.get(c, "scrape", api.PathMetrics, "", dueS)
			nScrapes++
		}
		if heap.due(time.Now()) {
			r.sampleHeap()
		}
	}
	r.end()
	cancel()
	wg.Wait()
	return nil
}

// subscribe follows one route's SSE stream until ctx ends; every decoded
// vehicle is an observation.
func (r *run) subscribe(ctx context.Context, route string) {
	c := r.newConn(0)
	cl := r.typed(c)
	err := cl.StreamRoute(ctx, route, 0, func(ev client.StreamEvent) error {
		now := time.Now()
		var vs []api.VehicleStatus
		if ev.Snapshot != nil {
			vs = ev.Snapshot.Vehicles
		} else if ev.Delta != nil {
			vs = ev.Delta.Updated
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		r.streamEvs++
		for _, v := range vs {
			r.obsLog.add(&observation{At: now, Bus: v.BusID, Arc: v.Arc})
		}
		if r.tr != nil && ev.Delta != nil {
			if t, ok := r.epochAt(ev.Epoch); ok {
				r.streamLag = append(r.streamLag, float64(now.Sub(t))/1e6)
			}
		}
		return nil
	})
	r.mu.Lock()
	r.streamErr = err
	r.mu.Unlock()
}

// --- ap-churn --------------------------------------------------------

const (
	churnFrame = 128    // reports per frame
	churnRate  = 8000.0 // reports per second, open loop
	churnRead  = 50.0   // vehicle-list reads per second, each right after a frame
	churnETA   = 10.0   // arrival reads per second, open loop
)

// driveAPChurn sends batch frames at a fixed rate from one generator and
// applies the churn waves between frames, after every earlier frame is
// acknowledged: deactivate the wave's APs, then rebuild the diagram, as
// scenario.Run does. Each cycle of the world starts by reactivating every
// AP and rebuilding, so the waves repeat. Between frames the generator
// also reads: the vehicle list right after a frame's ack, as fleet-batch
// does, and the routes' arrivals on their own schedule.
func driveAPChurn(r *run) error {
	c := r.newConn(30 * time.Second)
	cl := r.typed(c)
	r.begin()
	r.goroutines.Add(1) // this generator
	routes := r.w.c.Net.Routes()
	waves := r.w.c.Waves
	waveAt := func(cycle, w int) time.Time { return waves[w].At.Add(time.Duration(cycle) * cyclePeriod) }
	heap := ticker{every: 20 * time.Millisecond}
	var buf []api.Report
	cycle, wave, reads, etas := 0, 0, 0, 0
	var err error
	for p := int64(0); err == nil; {
		due := r.start.Add(time.Duration(float64(p) / churnRate * 1e9))
		if !due.Before(r.start.Add(r.dur)) {
			break
		}
		// Apply the deployment changes due before event p.
		if cy, _ := r.w.split(p); cy != cycle {
			cycle, wave = cy, 0
			err = r.churn(p, -1)
		}
		for err == nil && wave < len(waves) && !r.w.deliver(p).Before(waveAt(cycle, wave)) {
			err = r.churn(p, wave)
			wave++
		}
		if err != nil {
			break
		}
		// The frame ends early at the next deployment change.
		end := p + 1
		for ; end < p+churnFrame; end++ {
			if cy, _ := r.w.split(end); cy != cycle || (wave < len(waves) && !r.w.deliver(end).Before(waveAt(cycle, wave))) {
				break
			}
		}
		waitUntil(due)
		watch := r.readDue(reads, churnRead)
		buf = r.postFrame(cl, writeOp{P0: p, P1: end, Due: due, Watched: watch}, buf)
		r.advance(r.w.deliver(end - 1))
		p = end
		if watch {
			r.get(c, "vehicles", api.PathVehicles, "", time.Time{})
			r.sampleRing() // after a fresh read, so rendering publishes nothing
			reads++
		}
		if dueA := r.start.Add(time.Duration(float64(etas) / churnETA * 1e9)); !time.Now().Before(dueA) {
			rt := routes[etas%len(routes)]
			r.get(c, "arrivals", fmt.Sprintf("%s?route=%s&stop=%d", api.PathArrivals, rt.ID(), 1), "", dueA)
			etas++
		}
		if heap.due(time.Now()) {
			r.sampleHeap()
		}
	}
	r.end()
	return err
}

// churn applies one deployment change before event g and rebuilds.
func (r *run) churn(g int64, wave int) error {
	dep := r.w.c.Dep
	if err := applyChurn(dep, r.w.c.Waves, wave); err != nil {
		return err
	}
	sp := r.tr.begin("svd.rebuild", 0, 0)
	t0 := time.Now()
	if _, err := r.svc.Rebuild(context.Background()); err != nil {
		return fmt.Errorf("rebuild after churn: %w", err)
	}
	d := time.Since(t0)
	r.tr.finish(sp)
	r.mu.Lock()
	r.actions = append(r.actions, action{g: g, wave: wave})
	r.rebuilds = append(r.rebuilds, d.Seconds())
	r.mu.Unlock()
	return nil
}

// applyChurn deactivates a wave's APs, or with wave -1 reactivates all.
func applyChurn(dep *wifi.Deployment, waves []scenario.Wave, wave int) error {
	if wave < 0 {
		for _, ap := range dep.APs() {
			if err := dep.Reactivate(ap.BSSID); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range waves[wave].Dead {
		if err := dep.Deactivate(b); err != nil {
			return err
		}
	}
	return nil
}
