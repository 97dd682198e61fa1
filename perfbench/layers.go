package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"wilocator/internal/api"
	"wilocator/internal/locate"
	"wilocator/internal/predict"
	"wilocator/internal/sensing"
	"wilocator/internal/svd"
	"wilocator/internal/trafficmap"
	"wilocator/internal/wifi"
)

// oobLimit bounds the events the out-of-band layer replays walk.
const oobLimit = 40000

// layers derives the per-layer metrics of a traced pass. Layers the
// program runs only inside server (sensing, locate, predict, trafficmap)
// are timed out of band, by calling their public functions on the run's own
// inputs; tracing inside the program is a later change.
func layers(r *run, ref *reference, m *metrics, compileS, openS sample, out io.Writer) error {
	probed := r.probe()
	c := r.w.c
	tr := r.tr

	m.set("scenario.compile_s", compileS.quantile(0.5), "s", len(compileS))
	m.set("traveltime.open_s", openS.quantile(0.5), "s", len(openS))

	// svd: a fresh build of the full deployment, and the live rebuilds.
	if err := applyChurn(c.Dep, c.Waves, -1); err != nil {
		return err
	}
	var build sample
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := svd.Build(c.Net, c.Dep, c.Dia.Config()); err != nil {
			return fmt.Errorf("svd build: %w", err)
		}
		tr.add("svd.build", 0, t0, time.Now())
		build = append(build, time.Since(t0).Seconds())
	}
	m.set("svd.build_s", build.quantile(0.5), "s", len(build))
	m.set("svd.rebuilds", float64(len(r.rebuilds)), "count", len(r.rebuilds))
	rebuilds := r.rebuilds
	if len(rebuilds) == 0 {
		// No live rebuild in this workload: time the call on the idle
		// service instead (a probe-only figure).
		probed = append(probed, "svd.rebuild_s")
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := r.svc.Rebuild(context.Background()); err != nil {
				return fmt.Errorf("probe rebuild: %w", err)
			}
			tr.add("svd.rebuild", 0, t0, time.Now())
			rebuilds = append(rebuilds, time.Since(t0).Seconds())
		}
	}
	m.set("svd.rebuild_s", rebuilds.quantile(0.5), "s", len(rebuilds))

	// api: the run's own reports, re-encoded as the NDJSON lines the
	// client sent, through the server's decoder.
	var lines [][]byte
	for _, g := range ref.gs[:min(len(ref.gs), oobLimit)] {
		b, err := json.Marshal(r.w.report(g))
		if err != nil {
			return err
		}
		lines = append(lines, b)
	}
	dec := api.NewReportDecoder()
	var rep api.Report
	var decode sample
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		for _, l := range lines {
			if err := dec.Decode(&rep, l); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
		}
		tr.add("api.decode", 0, t0, time.Now())
		decode = append(decode, float64(time.Since(t0).Nanoseconds())/float64(len(lines)))
	}
	m.set("api.decode_ns_per_report", decode.quantile(0.5), "ns", len(lines))

	rows := selfTimes(tr.spans)
	dur := func(name string, scale float64) (float64, int) {
		if row := rows[name]; row != nil {
			return row.Dur.quantile(0.5) * scale, row.Count
		}
		return 0, 0
	}
	self := func(name string) (float64, int) {
		if row := rows[name]; row != nil {
			return row.Self.quantile(0.5), row.Count
		}
		return 0, 0
	}
	setDur := func(metric, span, unit string, scale float64) {
		v, n := dur(span, scale)
		m.set(metric, v, unit, n)
	}
	setDur("server.batch_frame_us", "server.batch_frame", "us", 1)
	setDur("server.post_us", "server.post", "us", 1)
	v, n := self("server.get")
	m.set("server.get_us", v, "us", n)
	setDur("server.publish_us", "server.publish", "us", 1)
	setDur("obs.metrics_scrape_us", "obs.metrics_scrape", "us", 1)
	setDur("traveltime.record_us", "traveltime.record", "us", 1)
	setDur("traveltime.group_commit_ms", "traveltime.group_commit", "ms", 1e-3)

	hs := r.svc.HTTPStats()
	rs := r.svc.ReadStats()
	st := r.svc.Stats()
	ps := r.persist.Stats()
	m.set("server.ring_depth_max", float64(r.ringMax.Load()), "count", 1)
	m.set("server.shed_429", float64(hs.Shed+hs.BatchShed), "count", 1)
	m.set("server.fix_ratio", ratio(float64(st.Located), float64(st.Flushes)), "ratio", int(st.Flushes))
	m.set("server.publishes", float64(rs.Publishes), "count", 1)
	m.set("server.reads_per_epoch", ratio(float64(rs.Serves), float64(rs.Publishes)), "ratio", int(rs.Publishes))
	m.set("server.not_modified_ratio", ratio(float64(rs.NotModified), float64(rs.Serves)), "ratio", int(rs.Serves))
	m.set("server.stream_deltas", float64(rs.StreamDeltas), "count", 1)
	m.set("server.stream_dropped", float64(rs.StreamDropped), "count", 1)

	var batchReqs int64
	frames := 0
	for _, c := range r.conns {
		batchReqs += c.batchReqs.Load()
	}
	for _, op := range r.writes {
		if !op.Single {
			frames++
		}
	}
	m.set("client.batch_resumes", float64(batchReqs-int64(frames)), "count", frames)
	m.set("client.retries", float64(r.retries.Load()), "count", 1)
	m.set("client.stream_lag_ms", r.streamLag.quantile(0.5), "ms", len(r.streamLag))
	m.set("traveltime.records", float64(len(r.records)), "count", 1)
	m.set("traveltime.syncs_per_frame", ratio(float64(ps.WALSyncs), float64(frames)), "ratio", frames)
	late := r.lateness()
	m.set("loadgen.late_p99_ms", late.quantile(0.99), "ms", len(late))

	fuse, observe, methods, fixes := replayBuckets(r, ref)
	m.set("sensing.fuse_us", fuse.quantile(0.5), "us", len(fuse))
	m.set("locate.observe_us", observe.quantile(0.5), "us", len(observe))
	for _, k := range []string{"tile", "boundary", "fallback", "nofix"} {
		m.set("locate.method_share."+k, ratio(float64(methods[k]), float64(fixes)), "ratio", fixes)
	}
	allStops, maps := replayReads(r, ref)
	m.set("predict.all_stops_us", allStops.quantile(0.5), "us", len(allStops))
	m.set("trafficmap.map_us", maps.quantile(0.5), "us", len(maps))

	fmt.Fprintln(out, "[traced] per-layer self time (out-of-band spans: scenario.*, svd.*, api.*, sensing.*, locate.*, predict.*, trafficmap.*):")
	writeSelfTable(out, selfTimes(tr.spans))
	if len(probed) > 0 {
		fmt.Fprintf(out, "[traced] probe-only figures (the workload's load never called the path): %v\n", probed)
	}
	path := filepath.Join(filepath.Dir(filepath.Dir(r.dir)), fmt.Sprintf("spans-%s-seed%d.jsonl", r.wl.name, r.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	fmt.Fprintf(out, "[traced] %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// probe runs after the live load and its checks, on the same server, and
// calls the request paths the workload's load leaves idle a few times: the
// result line must carry every per_layer metric on every workload, each
// one measured. It returns the names of the figures it filled, which the
// report prints.
func (r *run) probe() (filled []string) {
	rows := selfTimes(r.tr.spans)
	has := func(name string) bool { return rows[name] != nil && rows[name].Count > 0 }
	c := r.newConn(30 * time.Second)
	cl := r.typed(c)
	next := int64(0)
	for _, op := range r.writes {
		next = max(next, op.P1)
	}
	if !has("server.post") {
		filled = append(filled, "server.post_us")
		for i := int64(0); i < 50; i++ {
			_, _ = cl.PostReport(context.Background(), r.w.report(next+i))
		}
		next += 50
	}
	if !has("server.get") {
		// Every read of the load republished the snapshot (fleet-batch
		// reads right after each frame): time reads of an unchanged one.
		filled = append(filled, "server.get_us")
		for i := 0; i < 50; i++ {
			r.get(c, "probe", api.PathVehicles, "", time.Now())
		}
	}
	if !has("obs.metrics_scrape") {
		filled = append(filled, "obs.metrics_scrape_us")
		for i := 0; i < 20; i++ {
			r.get(c, "scrape", api.PathMetrics, "", time.Now())
		}
	}
	if len(r.streamLag) == 0 {
		filled = append(filled, "client.stream_lag_ms")
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.subscribe(ctx, r.w.c.Net.Routes()[0].ID())
		}()
		for i := int64(0); i < 200; i++ {
			_, _ = cl.PostReport(context.Background(), r.w.report(next+i))
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		cancel()
		wg.Wait()
	}
	return filled
}

// replayBuckets replays the run's own per-bus fusion buckets through
// sensing.Fuse and locate.Tracker.Observe over the initial diagram, out of
// band, and counts the locate rule behind each fix.
func replayBuckets(r *run, ref *reference) (fuse, observe sample, methods map[string]int, fixes int) {
	c := r.w.c
	methods = map[string]int{}
	pos, err := locate.NewPositioner(c.Dia, c.Dia.Order())
	if err != nil {
		return nil, nil, methods, 0
	}
	type bus struct {
		tracker *locate.Tracker
		at      time.Time
		scans   []wifi.Scan
	}
	buses := map[string]*bus{}
	root := r.tr.add("oob.locate", 0, time.Now(), time.Now())
	window := c.Spec.ScanPeriod
	for _, g := range ref.gs[:min(len(ref.gs), oobLimit)] {
		rep := r.w.report(g)
		b := buses[rep.BusID]
		if b == nil {
			t, err := locate.NewTracker(pos, rep.RouteID, locate.TrackerConfig{})
			if err != nil {
				continue
			}
			b = &bus{tracker: t}
			buses[rep.BusID] = b
		}
		bucket := rep.Scan.Time.Truncate(window)
		if !b.at.IsZero() && bucket.Before(b.at) {
			continue
		}
		if bucket.After(b.at) && len(b.scans) > 0 {
			t0 := time.Now()
			fused := sensing.Fuse(b.scans)
			t1 := time.Now()
			est, _, err := b.tracker.Observe(fused)
			t2 := time.Now()
			r.tr.add("sensing.fuse", root, t0, t1)
			r.tr.add("locate.observe", root, t1, t2)
			fuse = append(fuse, float64(t1.Sub(t0))/1e3)
			observe = append(observe, float64(t2.Sub(t1))/1e3)
			fixes++
			switch {
			case err != nil:
				methods["nofix"]++
			case est.Method == locate.MethodExact:
				methods["tile"]++
			case est.Method == locate.MethodTie:
				methods["boundary"]++
			default:
				methods["fallback"]++
			}
			b.scans = b.scans[:0]
		}
		b.at = bucket
		b.scans = append(b.scans, rep.Scan)
	}
	return fuse, observe, methods, fixes
}

// replayReads calls PredictAllStops and MapForRoute over the run's final
// store, at the instants and positions of the run's own fixes, out of band.
func replayReads(r *run, ref *reference) (allStops, maps sample) {
	c := r.w.c
	pred, err := predict.NewWiLocator(c.Net, r.svc.Store(), predict.Config{})
	if err != nil {
		return nil, nil
	}
	gen, err := trafficmap.NewGenerator(c.Net, r.svc.Store(), trafficmap.Config{})
	if err != nil {
		return nil, nil
	}
	root := r.tr.add("oob.read", 0, time.Now(), time.Now())
	var located []int
	for i, o := range ref.out {
		if o.located {
			located = append(located, i)
		}
	}
	step := max(1, len(located)/300)
	for k := 0; k < len(located); k += step {
		i := located[k]
		g := ref.gs[i]
		rep := r.w.report(g)
		at := r.w.deliver(g)
		t0 := time.Now()
		_, _ = pred.PredictAllStops(rep.RouteID, ref.out[i].arc, at)
		t1 := time.Now()
		_, _ = gen.MapForRoute(rep.RouteID, at)
		t2 := time.Now()
		r.tr.add("predict.all_stops", root, t0, t1)
		r.tr.add("trafficmap.map", root, t1, t2)
		allStops = append(allStops, float64(t1.Sub(t0))/1e3)
		maps = append(maps, float64(t2.Sub(t1))/1e3)
	}
	return allStops, maps
}
