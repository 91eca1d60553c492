package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/scenario"
)

// setupSamples is how many times a run times its set-up; setup_s is the
// median. A sweep or bigrun sample repeats input generation plus parse and
// compile a fixed number of times and takes the mean, so that one sample
// measures tens of milliseconds of work rather than timer noise.
const setupSamples = 5

// compileDocs parses and compiles every document.
func compileDocs(docs []doc) ([]*scenario.Compiled, error) {
	out := make([]*scenario.Compiled, len(docs))
	for i, d := range docs {
		parsed, err := scenario.Parse(d.name, d.body)
		if err != nil {
			return nil, err
		}
		if out[i], err = scenario.Compile(parsed); err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	return out, nil
}

// setupDocs times input generation plus parse and compile: setupSamples
// samples of reps repetitions each. It returns the last repetition's
// compiled documents and the median per-repetition seconds.
func setupDocs(gen func() []doc, reps int) ([]*scenario.Compiled, float64, error) {
	var samples []float64
	var compiled []*scenario.Compiled
	for range setupSamples {
		runtime.GC()
		t0 := time.Now()
		for range reps {
			var err error
			if compiled, err = compileDocs(gen()); err != nil {
				return nil, 0, err
			}
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(reps))
	}
	return compiled, median(samples), nil
}

// docRun is one document's run inside a pass.
type docRun struct {
	latency, firstCell time.Duration // from the document's start
	digest             string
	lines              [][]byte
	cells              int
	err                error
}

// pass is one repetition over a batch of documents, run back to back.
type pass struct {
	wall  time.Duration
	docs  []docRun
	cache core.CacheStats // counter deltas over the pass
	rt    rtStats         // runtime counter deltas over the pass
}

// digest is the SHA-256 of an NDJSON stream.
func digest(lines [][]byte) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runPass runs every compiled document through scenario.Run from a cold
// plan cache. gate, when set, is installed as RunOptions.Gate.
func runPass(compiled []*scenario.Compiled, workers int, gate func(context.Context, func()) error) pass {
	core.ResetPlanCache()
	runtime.GC()
	before, rt0 := core.PlanCacheStats(), readRuntime()
	p := pass{docs: make([]docRun, len(compiled))}
	t0 := time.Now()
	for i, c := range compiled {
		d := &p.docs[i]
		start := time.Now()
		seen := 0
		d.lines, d.err = c.Run(scenario.RunOptions{
			Workers: workers,
			Gate:    gate,
			OnLine: func([]byte) error {
				// The second line is the first cell.
				if seen++; seen == 2 {
					d.firstCell = time.Since(start)
				}
				return nil
			},
		})
		d.latency = time.Since(start)
		d.cells = len(c.Cells)
		if d.err == nil {
			d.digest = digest(d.lines)
		}
	}
	p.wall = time.Since(t0)
	rt1 := readRuntime()
	p.rt = rtStats{
		allocBytes:   rt1.allocBytes - rt0.allocBytes,
		allocObjects: rt1.allocObjects - rt0.allocObjects,
		gcCPU:        rt1.gcCPU - rt0.gcCPU,
		totalCPU:     rt1.totalCPU - rt0.totalCPU,
	}
	p.cache = cacheDelta(before, core.PlanCacheStats())
	return p
}

func cacheDelta(a, b core.CacheStats) core.CacheStats {
	return core.CacheStats{
		PlanBuilds:          b.PlanBuilds - a.PlanBuilds,
		PlanRetrievals:      b.PlanRetrievals - a.PlanRetrievals,
		MemberDAXBuilds:     b.MemberDAXBuilds - a.MemberDAXBuilds,
		MemberDAXRetrievals: b.MemberDAXRetrievals - a.MemberDAXRetrievals,
	}
}

// closedLoop repeats passes while another fits in the run's measuring
// time (at least minReps times). Each pass starts from a cold plan cache;
// every pass must show the same cache-counter deltas and the same output.
// Each pass is one batch: its wall time, peak resident set and document
// latency percentiles are per-pass figures, reported as medians over the
// passes.
func (r *run) closedLoop(compiled []*scenario.Compiled, minReps int, slo time.Duration) []pass {
	var passes []pass
	var rss []float64
	mon := startRSS()
	defer mon.close()
	began := time.Now()
	var last time.Duration
	for len(passes) < minReps || time.Since(began)+last <= r.seconds {
		mon.reset()
		t0 := time.Now()
		p := runPass(compiled, runtime.NumCPU(), nil)
		last = time.Since(t0)
		rss = append(rss, mon.peakMiB())
		if len(passes) > 0 {
			// Later passes are checked by digest; dropping their lines
			// keeps the live heap, and so GC work, the same in every pass.
			for i := range p.docs {
				p.docs[i].lines = nil
			}
		}
		passes = append(passes, p)
	}
	first := passes[0]
	var walls, allocs, p50, p99, firstCell []float64
	okDocs, docs := 0, 0
	for k, p := range passes {
		if p.cache != first.cache {
			r.fail("pass %d is not cold: plan-cache deltas %+v, pass 0 had %+v", k, p.cache, first.cache)
		}
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.rt.allocBytes)/(1<<20))
		var lat, fc []float64
		for i, d := range p.docs {
			r.attempted += d.cells
			switch {
			case d.err != nil:
				r.failed += d.cells
				r.fail("pass %d %s: %v", k, compiled[i].Doc.Name, d.err)
			case d.digest != first.docs[i].digest:
				r.failed += d.cells
				r.fail("pass %d %s: output differs from pass 0", k, compiled[i].Doc.Name)
			default:
				if d.latency <= slo {
					okDocs++
				}
			}
			lat = append(lat, ms(d.latency))
			fc = append(fc, ms(d.firstCell))
		}
		docs += len(lat)
		p50 = append(p50, median(lat))
		p99 = append(p99, pctile(lat, 0.99))
		firstCell = append(firstCell, median(fc))
	}
	r.set("wall_s", "s", median(walls))
	r.set("alloc_mib", "MiB", median(allocs))
	r.set("peak_rss_mib", "MiB", median(rss))
	r.set("req_ms_p50", "ms", median(p50))
	r.set("req_ms_p99", "ms", median(p99))
	r.set("first_cell_ms_p50", "ms", median(firstCell))
	r.set("slo_pct", "%", 100*float64(okDocs)/float64(docs))
	fmt.Fprintf(os.Stderr, "perfbench: %d passes of %d documents, wall median %.3fs\n", len(passes), len(compiled), median(walls))
	return passes
}

// setOK reports the share of operations that succeeded.
func (r *run) setOK() {
	if r.attempted > 0 {
		r.set("ok_pct", "%", 100*float64(r.attempted-r.failed)/float64(r.attempted))
	}
}

// cellFields are the simulated fields of one cell line that every mode
// (exact or aggregated, traced or not) must reproduce exactly.
type cellFields struct {
	Makespan  float64 `json:"makespan_s"`
	Jobs      int     `json:"jobs"`
	Attempts  int     `json:"attempts"`
	Retries   int     `json:"retries"`
	Evictions int     `json:"evictions"`
	Failovers int     `json:"failovers"`
	Success   bool    `json:"success"`
}

// cellLines decodes the cell lines of a stream (header and footer
// excluded).
func cellLines(lines [][]byte) ([]cellFields, error) {
	if len(lines) < 2 {
		return nil, fmt.Errorf("stream of %d lines", len(lines))
	}
	out := make([]cellFields, 0, len(lines)-2)
	for _, l := range lines[1 : len(lines)-1] {
		var f cellFields
		dec := json.NewDecoder(bytes.NewReader(l))
		if err := dec.Decode(&f); err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
