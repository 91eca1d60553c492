package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"
)

// span is one timed call into a layer. Start and end are offsets from the
// tracer's start; child and childAllocs sum the direct children, so self
// time is dur - child.
type span struct {
	Name        string        `json:"name"`
	ID          int           `json:"id"` // cell or request id, -1 for none
	Parent      int           `json:"parent"`
	Start       time.Duration `json:"start_ns"`
	Dur         time.Duration `json:"dur_ns"`
	Allocs      uint64        `json:"allocs"`
	child       time.Duration
	childAllocs uint64
}

// tracer records spans in memory; they are written out when the run ends.
// Spans nest by call order: a span opened while another is open is its
// child. The traced run uses one worker, so spans never overlap.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	sample []metrics.Sample
	// heapPeak is the largest live-heap reading taken at a span boundary.
	heapPeak uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		spans:  make([]span, 0, 1<<14),
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/memory/classes/heap/objects:bytes"}},
	}
}

// allocs reads the process's cumulative heap-object count. The runtime
// counts small objects when an allocation cache is refilled, so a span's
// count is exact up to one cache's worth per size class; sums over many
// spans even out.
func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	if h := t.sample[1].Value.Uint64(); h > t.heapPeak {
		t.heapPeak = h
	}
	return t.sample[0].Value.Uint64()
}

func (t *tracer) begin(name string, id int) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Allocs = t.allocs()
	t.spans[i].Start = time.Since(t.t0)
}

func (t *tracer) end() {
	end := time.Since(t.t0)
	a := t.allocs()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.Dur = end - s.Start
	s.Allocs = a - s.Allocs
	if s.Parent >= 0 {
		t.spans[s.Parent].child += s.Dur
		t.spans[s.Parent].childAllocs += s.Allocs
	}
}

// do runs f inside a span.
func (t *tracer) do(name string, id int, f func()) {
	t.begin(name, id)
	f()
	t.end()
}

// add records a span measured outside the tracer — the summed time of an
// executor's many short calls, or a request phase timed by line arrivals —
// as a child of parent (-1 for a root), and returns its index.
func (t *tracer) add(name string, id, parent int, start, dur time.Duration, allocs uint64) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, Dur: dur, Allocs: allocs})
	if parent >= 0 {
		t.spans[parent].child += dur
		t.spans[parent].childAllocs += allocs
	}
	return len(t.spans) - 1
}

// inner is the innermost open span.
func (t *tracer) inner() int { return t.open[len(t.open)-1] }

// layerTotals sums self time and self allocations by span name.
type layerTotals struct {
	self   map[string]time.Duration
	allocs map[string]uint64
	// samples holds per-span inclusive durations, in milliseconds.
	samples map[string][]float64
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{
		self:    map[string]time.Duration{},
		allocs:  map[string]uint64{},
		samples: map[string][]float64{},
	}
	for _, s := range t.spans {
		lt.self[s.Name] += s.Dur - s.child
		lt.allocs[s.Name] += s.Allocs - s.childAllocs
		lt.samples[s.Name] = append(lt.samples[s.Name], ms(s.Dur))
	}
	return lt
}

// covered is the summed self time of the layer spans: every span but the
// harness's own ("harness." spans, which include the root span of each
// pass).
func (lt layerTotals) covered() time.Duration {
	var d time.Duration
	for name, self := range lt.self {
		if !strings.HasPrefix(name, "harness.") {
			d += self
		}
	}
	return d
}

// write saves the spans as JSON under .bench_out/ in the working directory.
func (t *tracer) write(workload string, seed uint64) error {
	if err := os.MkdirAll(".bench_out", 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(".bench_out", fmt.Sprintf("trace-%s-%d.json", workload, seed))
	return os.WriteFile(path, b, 0o644)
}
