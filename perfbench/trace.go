package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent links a span to the span that caused it (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay one
// nil check per boundary.
type tracer struct {
	base time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
	// open maps a goroutine to the server request span it is serving, so
	// hooks the program calls without a context (the Sink, GroupCommit)
	// can name their parent.
	open map[uint64]span
}

func newTracer() *tracer { return &tracer{base: time.Now(), open: map[uint64]span{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span; finish records it.
func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	id := t.next.Add(1)
	if req == 0 {
		req = id
	}
	return span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span measured by the caller.
func (t *tracer) add(name string, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	req := id
	if parent != 0 {
		req = parent
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	t.mu.Unlock()
	return id
}

// bind marks s as the request span the calling goroutine is serving;
// unbind clears it.
func (t *tracer) bind(s span) {
	if t == nil {
		return
	}
	g := goid()
	t.mu.Lock()
	t.open[g] = s
	t.mu.Unlock()
}

func (t *tracer) unbind() {
	if t == nil {
		return
	}
	g := goid()
	t.mu.Lock()
	delete(t.open, g)
	t.mu.Unlock()
}

// child opens a span under the request span bound to this goroutine, or a
// root span when none is bound.
func (t *tracer) child(name string) span {
	if t == nil {
		return span{}
	}
	g := goid()
	t.mu.Lock()
	p, ok := t.open[g]
	t.mu.Unlock()
	if !ok {
		return t.begin(name, 0, 0)
	}
	return t.begin(name, p.ID, p.Req)
}

// goid parses the current goroutine's id from its stack header. It costs
// about a microsecond, which only traced runs pay.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseUint(string(b), 10, 64)
	return n
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string
	Count   int
	TotalMS float64
	SelfMS  float64
	Self    sample // per-span self time, µs
	Dur     sample // per-span duration, µs
}

// selfTimes computes each span's self time (its duration minus the part of
// it its children cover) and groups the spans by name.
func selfTimes(spans []span) map[string]*layerRow {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		covered := coveredNs(s, kids[s.ID])
		self := float64(s.End-s.Start-covered) / 1e3
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += self / 1e3
		r.Self = append(r.Self, self)
		r.Dur = append(r.Dur, float64(s.End-s.Start)/1e3)
	}
	return rows
}

// coveredNs is the length of the union of the children's intervals, clipped
// to the parent's.
func coveredNs(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSelfTable prints the per-layer self-time table.
func writeSelfTable(w io.Writer, rows map[string]*layerRow) {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %9s %11s %11s %11s\n", "span", "count", "total_ms", "self_ms", "self_p50_us")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-28s %9d %11.2f %11.2f %11.2f\n", n, r.Count, r.TotalMS, r.SelfMS, r.Self.quantile(0.5))
	}
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
