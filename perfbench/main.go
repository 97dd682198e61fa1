// Command perfbench is WiLocator's end-to-end benchmark. It compiles a
// seeded scenario world, serves it through the real HTTP handler with WAL
// persistence, drives one workload's traffic mix against it from a single
// generator process, checks every output against a sequential in-process
// replay, and prints the run's metrics; the last line of standard output is
// one JSON object. See README.md for the workloads and the metric map.
//
//	go run . --workload fleet-batch --seed 1 --spec ../BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wilocator/internal/roadnet"
	"wilocator/internal/scenario"
)

// workload is one traffic mix over one world.
type workload struct {
	name  string
	spec  func(seed uint64) scenario.Spec
	drive func(*run) error
}

// citySeed fixes each workload's street map: the seed varies the AP
// deployment, the dispatch plan, the phones and the delivery perturbation,
// not the city, so the run-to-run spread is the traffic's, not the
// geometry's.
const citySeed = 1

// The worlds are picked for what each workload must stress, never to steer
// around a known defect: the riverine form is unused because no workload
// needs a river crossing, not because of its open map-order defect.
var workloads = []workload{
	{
		// Write-heavy: a grid city whose 4-hour window dispatches hundreds
		// of buses; ingest layers do nearly all the work.
		name: "fleet-batch",
		spec: func(seed uint64) scenario.Spec {
			return scenario.Spec{
				Name: "fleet-batch", Seed: seed,
				City:      roadnet.CitySpec{Form: roadnet.CityGrid, Seed: citySeed},
				StartHour: 6, EndHour: 10, BaseHeadway: 2 * time.Minute,
				Device:  scenario.DeviceSpec{BiasSigma: 4, DropoutProb: 0.05},
				DupProb: 0.02, SwapProb: 0.02,
			}
		},
		drive: driveFleetBatch,
	},
	{
		// Reads beside writes: a radial city whose routes share a spoke and
		// meet at the hub, so arrival tables and the traffic map have
		// cross-route work.
		name: "rider-mix",
		spec: func(seed uint64) scenario.Spec {
			return scenario.Spec{
				Name: "rider-mix", Seed: seed,
				City:      roadnet.CitySpec{Form: roadnet.CityRadial, Seed: citySeed},
				StartHour: 9, EndHour: 11, BaseHeadway: 2 * time.Minute,
				Device:  scenario.DeviceSpec{BiasSigma: 4, DropoutProb: 0.05},
				DupProb: 0.02, SwapProb: 0.02,
			}
		},
		drive: driveRiderMix,
	},
	{
		// Diagram rebuilds under ingest: three churn waves per service hour.
		name: "ap-churn",
		spec: func(seed uint64) scenario.Spec {
			return scenario.Spec{
				Name: "ap-churn", Seed: seed,
				City:        roadnet.CitySpec{Form: roadnet.CityGrid, Seed: citySeed},
				BaseHeadway: 2 * time.Minute,
				Device:      scenario.DeviceSpec{BiasSigma: 4, DropoutProb: 0.05},
				Churn: []scenario.ChurnWave{
					{After: 15 * time.Minute, Frac: 0.15},
					{After: 30 * time.Minute, Frac: 0.15},
					{After: 45 * time.Minute, Frac: 0.15},
				},
			}
		},
		drive: driveAPChurn,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // scratch directory for WAL files and span dumps
	spec     string // BENCHMARK.json: which metrics the result line carries
	plant    int64  // see run.plant
}

// setups is how many times an untraced pass sets its world up; setup_s is
// their median, and the event hash must agree across them.
const setups = 3

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: fleet-batch, rider-mix or ap-churn")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated world and traffic")
	fs.IntVar(&o.seconds, "seconds", 20, "measured load duration, seconds")
	fs.IntVar(&trace, "trace", 0, "1: also run a traced pass and print the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for WAL files and span dumps")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition naming the metrics of the result line")
	fs.Int64Var(&o.plant, "plant", -1, "drop this generator position while claiming it sent (fault injection)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: correctness check failed")
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loadSpec reads the metric names the result line carries from
// BENCHMARK.json: its end_to_end list for untraced runs, per_layer for
// traced ones. The file is the one place a metric is listed.
func loadSpec(path string) (endToEnd, perLayer []string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("read metric list: %w", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer, nil
}

// execute runs the untraced pass, and with o.trace the traced pass, and
// assembles the result. Its report lines go to out.
func execute(o options, out io.Writer) (*result, error) {
	wl, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	endToEnd, perLayer, err := loadSpec(o.spec)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%d trace=%v nproc=%d\n", wl.name, o.seed, o.seconds, o.trace, runtime.NumCPU())
	plain, err := pass(wl, o, nil, out)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: plain.correct, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metric{}}
	names, src := endToEnd, plain.m
	if o.trace {
		traced, err := pass(wl, o, newTracer(), out)
		if err != nil {
			return nil, err
		}
		res.Correct = res.Correct && traced.correct
		for _, n := range []string{"ack_p50_ms", "get_p50_us", "fix_visible_p50_ms", "ingest_reports_per_s"} {
			a, b := traced.m.m[n], plain.m.m[n]
			traced.m.set("tracing.overhead."+n, a.Value-b.Value, a.Unit, a.N)
		}
		names, src = perLayer, traced.m
	}
	fmt.Fprintln(out, "metrics:")
	for _, n := range names {
		// A figure the untraced pass measured always comes from it, so no
		// end-to-end figure is ever read off the traced run.
		mt, ok := plain.m.m[n]
		if !ok {
			mt, ok = src.m[n]
		}
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		fmt.Fprintf(out, "  %-40s %14.6g %-6s n=%d\n", n, mt.Value, mt.Unit, mt.N)
		res.Metrics[n] = mt
	}
	return res, nil
}

// passResult is what one pass measured and checked.
type passResult struct {
	m                 *metrics
	correct           bool
	attempted, failed int
}

// pass sets the world up setups times (once when traced), keeping the
// last, drives the load, checks the outputs and derives the metrics.
func pass(wl *workload, o options, tr *tracer, out io.Writer) (*passResult, error) {
	label, n := "untraced", setups
	if tr != nil {
		label, n = "traced", 1
	}
	base := filepath.Join(o.out, fmt.Sprintf("run-%d-%s", os.Getpid(), label))
	defer os.RemoveAll(base)

	var setupS, compileS, openS sample
	var hashes []string
	var rg *rig
	for i := 0; i < n; i++ {
		t0 := time.Now()
		r, err := setupRig(wl.spec(o.seed), filepath.Join(base, fmt.Sprint(i)), tr)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		compileS = append(compileS, r.compileDur.Seconds())
		openS = append(openS, r.openDur.Seconds())
		hashes = append(hashes, r.w.hash)
		if i < n-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
			continue
		}
		rg = r
	}
	var bad []string
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			bad = append(bad, fmt.Sprintf("event stream is not deterministic: hashes %v for one seed", hashes))
			break
		}
	}
	fmt.Fprintf(out, "[%s] event_hash=%s events=%d buses=%d aps=%d routes=%d\n", label, hashes[0],
		len(rg.w.c.Events), len(rg.w.c.Buses), rg.w.c.Dep.NumAPs(), len(rg.w.c.Net.Routes()))

	r, err := newRun(rg, wl, o.seed, time.Duration(o.seconds)*time.Second, o.plant)
	if err != nil {
		rg.close()
		return nil, err
	}
	if err := errors.Join(wl.drive(r), r.readLogs()); err != nil {
		rg.close()
		return nil, err
	}

	gs := r.delivered()
	if len(gs) == 0 {
		rg.close()
		return nil, errors.New("the generator delivered no reports")
	}
	if r.records, err = rg.walRecords(); err != nil {
		rg.close()
		return nil, fmt.Errorf("read back the WAL: %w", err)
	}
	final := rg.w.deliver(gs[len(gs)-1])
	rg.clock.Store(final.UnixNano())
	rg.svc.EvictStale()
	ref, err := replay(rg.w, gs, r.actions, final)
	if err != nil {
		rg.close()
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	bad = append(bad, verify(r, ref)...)
	vis, unresolved := freshness(r, ref)

	m := newMetrics()
	acc := account(r, out, label)
	if nproc := runtime.NumCPU(); acc.goroutines > nproc || acc.dials > nproc {
		bad = append(bad, fmt.Sprintf("load used %d goroutines and %d connections on %d cores", acc.goroutines, acc.dials, nproc))
	}
	acc.failed += len(bad)

	m.set("setup_s", setupS.quantile(0.5), "s", len(setupS))
	ack, acked := newSeries(r.start, r.dur), newSeries(r.start, r.dur)
	var lastAck time.Time
	for _, op := range r.writes {
		if op.Warm || op.failed() {
			continue
		}
		if op.Done.After(lastAck) {
			lastAck = op.Done
		}
		ack.add(op.Done, float64(op.Done.Sub(op.start()))/1e6)
		if op.Single {
			acked.add(op.Done, 1)
		} else {
			acked.add(op.Done, float64(op.Resp.Received))
		}
	}
	m.set("ingest_reports_per_s", float64(acc.reportsAcked)/lastAck.Sub(r.start).Seconds(), "1/s", acc.reportsAcked)
	m.set("cpu_us_per_report", r.cpuS/float64(acc.reportsAcked)*1e6, "us", acc.reportsAcked)
	m.set("alloc_kb_per_report", r.allocB/float64(acc.reportsAcked)/1e3, "KB", acc.reportsAcked)
	fmt.Fprintf(out, "[%s] process CPU over the load: %.3f s\n", label, r.cpuS)
	fmt.Fprintf(out, "[%s] acked reports per window:", label)
	for _, w := range acked.windows() {
		fmt.Fprintf(out, " %.0f", w.sum())
	}
	fmt.Fprintln(out)
	lines := []string{
		m.timing("ack", ack, "ms"),
		m.timing("get", r.getLat, "us"),
		m.timing("fix_visible", vis, "ms"),
		describe("pos_err", ref.posErr, "m"),
		describe("eta_err", ref.etaErr, "s"),
	}
	m.set("pos_err_p50_m", ref.posErr.quantile(0.5), "m", len(ref.posErr))
	m.set("pos_err_p90_m", ref.posErr.quantile(0.9), "m", len(ref.posErr))
	m.set("eta_err_p50_s", ref.etaErr.quantile(0.5), "s", len(ref.etaErr))
	m.set("failed_ratio", ratio(float64(acc.failed), float64(acc.attempted)), "ratio", acc.attempted)
	m.set("heap_peak_mb", float64(r.heapPeak.Load())/(1<<20), "MB", 1)
	for _, l := range lines {
		fmt.Fprintf(out, "[%s] %s\n", label, l)
	}
	fmt.Fprintf(out, "[%s] fix_visible unresolved=%d (fixes no rider read saw before the run ended)\n", label, unresolved)
	fmt.Fprintf(out, "[%s] failed_ratio=%.6g (%d of %d)\n", label, m.m["failed_ratio"].Value, acc.failed, acc.attempted)

	if tr != nil {
		if err := layers(r, ref, m, compileS, openS, out); err != nil {
			rg.close()
			return nil, err
		}
	}
	for _, b := range bad {
		fmt.Fprintf(out, "[%s] MISMATCH %s\n", label, b)
	}
	if err := rg.close(); err != nil {
		return nil, err
	}
	return &passResult{m: m, correct: len(bad) == 0, attempted: acc.attempted, failed: acc.failed}, nil
}

// accounting totals every operation class of a run.
type accounting struct {
	attempted, failed     int
	reportsAcked          int
	goroutines, dials     int
	frames, posts, warmOp int
}

func account(r *run, out io.Writer, label string) accounting {
	var a accounting
	var wAtt, wFail, late, lateReports, located int
	for _, op := range r.writes {
		wAtt++
		switch {
		case op.Single:
			a.posts++
		case op.Warm:
			a.warmOp++
		default:
			a.frames++
		}
		if op.failed() {
			wFail++
			continue
		}
		if op.Warm {
			continue
		}
		if op.Single {
			a.reportsAcked++
			if op.One.Reason != "" {
				lateReports++
			}
			if op.One.Located {
				located++
			}
			continue
		}
		a.reportsAcked += op.Resp.Received
		lateReports += op.Resp.LateDropped
		located += op.Resp.Located
	}
	var shed, s503, s5xx, terrs int64
	for _, c := range r.conns {
		shed += c.s429.Load()
		s503 += c.s503.Load()
		s5xx += c.s5xx.Load()
		terrs += c.terrs.Load()
		a.dials += int(c.dials.Load())
	}
	lateS := r.lateness()
	late = len(lateS)
	var reads, readOK int
	for _, rc := range r.classes {
		reads += rc.n
		readOK += rc.ok
	}
	streamFail := 0
	if r.streamErr != nil {
		streamFail = 1
	}
	dropped := int(r.svc.ReadStats().StreamDropped)
	a.goroutines = int(r.goroutines.Load())
	a.attempted = wAtt + reads
	if r.streamEvs > 0 || r.streamErr != nil {
		a.attempted++
	}
	a.failed = wFail + r.readFails + int(shed+s503+s5xx+terrs) + r.tornReads + dropped + streamFail
	fmt.Fprintf(out, "[%s] writes: attempted=%d (frames=%d posts=%d warmup=%d) failed=%d acked_reports=%d located=%d late_dropped=%d\n",
		label, wAtt, a.frames, a.posts, a.warmOp, wFail, a.reportsAcked, located, lateReports)
	fmt.Fprintf(out, "[%s] reads: attempted=%d ok=%d failed=%d not_modified=%d torn=%d stream_events=%d stream_shed=%d\n",
		label, reads, readOK, r.readFails, r.notModified, r.tornReads, r.streamEvs, dropped)
	fmt.Fprintf(out, "[%s] responses: 429=%d 503=%d 5xx=%d transport_errors=%d retries=%d\n",
		label, shed, s503, s5xx, terrs, r.retries.Load())
	fmt.Fprintf(out, "[%s] generator: late_ops=%d late_p50_ms=%.4g late_p99_ms=%.4g\n", label, late, lateS.quantile(0.5), lateS.quantile(0.99))
	fmt.Fprintf(out, "[%s] load: goroutines=%d connections=%d nproc=%d sweeps=%d rebuilds=%d\n",
		label, a.goroutines, a.dials, runtime.NumCPU(), r.sweeps, len(r.rebuilds))
	return a
}
