package main

// Span recording for the traced run. The benchmark times the calls it
// makes into each layer from outside the program (direct calls and
// decorators around public interfaces) and keeps every span in memory:
// name, start, end and parent. Layer totals and self times (a span minus
// its children) are aggregated over all spans; the spans themselves are
// written out as CSV at the end of the run.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

type span struct {
	id, parent int64
	name       string
	start, end int64 // ns since the recorder's epoch
}

// recorder collects spans. A nil *recorder records nothing, so untraced
// code paths call it unconditionally.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	limit int
	// dropped counts spans past limit; aggregates still include them.
	dropped int
	agg     map[string]*layerAgg
	child   map[int64]int64 // open parent id -> summed child duration
	notes   map[string]*[2]float64
}

type layerAgg struct {
	calls        int64
	total, child int64
}

func newRecorder(limit int) *recorder {
	return &recorder{epoch: time.Now(), limit: limit, agg: map[string]*layerAgg{}, child: map[int64]int64{}, notes: map[string]*[2]float64{}}
}

// begin opens a span and returns its id and start time.
func (r *recorder) begin() (int64, int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return id, int64(time.Since(r.epoch))
}

// end closes span id started at start under parent.
func (r *recorder) end(id, parent int64, name string, start int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	d := now - start
	r.mu.Lock()
	a := r.agg[name]
	if a == nil {
		a = &layerAgg{}
		r.agg[name] = a
	}
	a.calls++
	a.total += d
	a.child += r.child[id]
	delete(r.child, id)
	if parent != 0 {
		r.child[parent] += d
	}
	if len(r.spans) < r.limit {
		r.spans = append(r.spans, span{id, parent, name, start, now})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return d
}

// note adds one observation of a counted quantity (rows, links) that is
// not a span.
func (r *recorder) note(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	n := r.notes[name]
	if n == nil {
		n = &[2]float64{}
		r.notes[name] = n
	}
	n[0] += v
	n[1]++
	r.mu.Unlock()
}

// noteSum and noteMean read the observations of a note.
func (r *recorder) noteSum(name string) float64 {
	if r == nil || r.notes[name] == nil {
		return 0
	}
	return r.notes[name][0]
}

func (r *recorder) noteMean(name string) float64 {
	if r == nil || r.notes[name] == nil || r.notes[name][1] == 0 {
		return 0
	}
	return r.notes[name][0] / r.notes[name][1]
}

// time runs fn as one span.
func (r *recorder) time(parent int64, name string, fn func(id int64)) time.Duration {
	id, start := r.begin()
	if r == nil {
		t0 := time.Now()
		fn(0)
		return time.Since(t0)
	}
	fn(id)
	return time.Duration(r.end(id, parent, name, start))
}

func (r *recorder) totalSeconds(name string) float64 {
	if r == nil || r.agg[name] == nil {
		return 0
	}
	return float64(r.agg[name].total) / 1e9
}

func (r *recorder) selfSeconds(name string) float64 {
	if r == nil || r.agg[name] == nil {
		return 0
	}
	a := r.agg[name]
	return float64(a.total-a.child) / 1e9
}

func (r *recorder) calls(name string) int64 {
	if r == nil || r.agg[name] == nil {
		return 0
	}
	return r.agg[name].calls
}

// meanUS is the mean span length of a layer in microseconds.
func (r *recorder) meanUS(name string) float64 {
	n := r.calls(name)
	if n == 0 {
		return 0
	}
	return r.totalSeconds(name) * 1e6 / float64(n)
}

// printTable writes one line per layer: calls, total and self seconds.
func (r *recorder) printTable(w io.Writer) {
	names := make([]string, 0, len(r.agg))
	for n := range r.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %10s %12s %12s\n", "layer", "calls", "total_s", "self_s")
	for _, n := range names {
		a := r.agg[n]
		fmt.Fprintf(w, "%-28s %10d %12.6f %12.6f\n", n, a.calls, float64(a.total)/1e9, float64(a.total-a.child)/1e9)
	}
	if r.dropped > 0 {
		fmt.Fprintf(w, "(%d spans past the in-memory limit were aggregated but not kept)\n", r.dropped)
	}
}

// writeCSV writes the kept spans: id,parent,name,start_ns,end_ns.
func (r *recorder) writeCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "id,parent,name,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(bw, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	return bw.Flush()
}
