package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of measurements of one quantity.
type sample []float64

// quantile returns the q-quantile (0..1) by linear interpolation between
// closest ranks; 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// tailPercentile names the highest of p99.9, p99, p90 and p50 that keeps at
// least ten samples beyond it, so a tail figure is never read off a handful
// of points.
func (s sample) tailPercentile() (label string, q float64) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(s))*(1-p.q) >= 10 {
			return p.label, p.q
		}
	}
	return "p50", 0.5
}

// window is the slice of a run each result figure is computed over; the
// figure is the median over the run's windows. A disturbance from outside
// the benchmark (another tenant's burst, a GC cycle) then moves a window or
// two, not the figure. The first window is left out: connections, pools and
// caches are still warming up.
const window = time.Second

// series is a sample split into the run's windows by the instant each
// value was taken. It keeps the values and no timestamps; values taken
// outside the run are dropped.
type series struct {
	start time.Time
	wins  []sample // wins[k] holds [start+k*window, start+(k+1)*window)
}

func newSeries(start time.Time, dur time.Duration) *series {
	return &series{start: start, wins: make([]sample, int(dur/window))}
}

func (s *series) add(at time.Time, v float64) {
	if at.Before(s.start) {
		return
	}
	if k := int(at.Sub(s.start) / window); k < len(s.wins) {
		s.wins[k] = append(s.wins[k], v)
	}
}

// pooled is every value of the run.
func (s *series) pooled() sample {
	var all sample
	for _, w := range s.wins {
		all = append(all, w...)
	}
	return all
}

// windows are the run's whole windows after the first.
func (s *series) windows() []sample { return s.wins[1:] }

// windowed is the median over windows holding at least minN values of
// each window's q-quantile; the pooled quantile when no window qualifies.
func (s *series) windowed(q float64, minN int) float64 {
	var per sample
	for _, w := range s.windows() {
		if len(w) >= minN {
			per = append(per, w.quantile(q))
		}
	}
	if len(per) == 0 {
		return s.pooled().quantile(q)
	}
	return per.quantile(0.5)
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// metric is one named figure of a run.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the figure; not part of the result
	// line, only of the human-readable report.
	N int `json:"-"`
}

// metrics collects figures by name.
type metrics struct {
	m map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name string, v float64, unit string, n int) {
	ms.m[name] = metric{Value: v, Unit: unit, N: n}
}

// timing sets prefix_p50_unit and prefix_p90_unit from a latency series
// (windowed medians) and returns the report line of the pooled
// distribution, up to its highest supported percentile.
func (ms *metrics) timing(prefix string, s *series, unit string) string {
	all := s.pooled()
	ms.set(prefix+"_p50_"+unit, s.windowed(0.5, 5), unit, len(all))
	ms.set(prefix+"_p90_"+unit, s.windowed(0.9, 20), unit, len(all))
	line := describe(prefix, all, unit) + "; window p50s:"
	for _, w := range s.windows() {
		line += fmt.Sprintf(" %.3g", w.quantile(0.5))
	}
	return line
}

// describe is the report line of a pooled sample.
func describe(prefix string, s sample, unit string) string {
	label, q := s.tailPercentile()
	return fmt.Sprintf("%s: n=%d p10=%.4g p25=%.4g p50=%.4g p75=%.4g %s=%.4g %s", prefix, len(s), s.quantile(0.1),
		s.quantile(0.25), s.quantile(0.5), s.quantile(0.75), label, s.quantile(q), unit)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
