package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pegflow/internal/core"
	"pegflow/internal/scenario"
)

// maxUnattributedPct is the share of the untraced program's time that the
// rebuilt cells' layer spans may leave uncovered before the traced run
// fails: a layer the harness does not measure must not go unnoticed.
const maxUnattributedPct = 15

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_mib"):
		return "MiB"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "ns_per_attempt"):
		return "ns"
	}
	return "count"
}

// zeroLayers reports every per-layer metric as 0 until the workload
// measures it: a layer the workload does not exercise reads 0.
func (r *run) zeroLayers() {
	for _, name := range perLayerNames {
		r.set(name, unitOf(name), 0)
	}
}

func (r *run) layer(name string, v float64) { r.set(name, unitOf(name), v) }

func (r *run) sweepTraced() error  { return r.tracedBatch(sweepDocs(r.seed)) }
func (r *run) bigrunTraced() error { return r.tracedBatch([]doc{bigDoc(r.seed, bigrunN, true)}) }

// tracedBatch alternates an untraced reference pass (one worker, cells
// timed through RunOptions.Gate) with a traced pass that rebuilds every
// cell from public calls, until the measuring time is spent. Every rebuilt
// cell must reproduce its reference cell's simulated fields, and the
// rebuild is held against the program's time: trace.unattributed_pct is
// the share of a reference pass's time (parse and compile included) that
// the next traced pass's layer-span self time does not cover — work the
// program does that no layer span measures, such as row encoding and the
// in-order emit.
func (r *run) tracedBatch(docs []doc) error {
	r.zeroLayers()
	t := newTracer()
	var cellMS []float64
	var refWalls, tracedWalls, coverage []float64
	var coveredSoFar time.Duration
	var ref pass
	var rc *recomposer
	pairs := 0
	cost := execCallCost(t)
	began := time.Now()
	var lastPair time.Duration
	for pairs == 0 || time.Since(began)+lastPair < r.seconds {
		pairStart := time.Now()
		compiled, err := compileDocs(docs)
		if err != nil {
			return err
		}
		compileTime := time.Since(pairStart)
		ref = runPass(compiled, 1, func(_ context.Context, run func()) error {
			s := time.Now()
			run()
			cellMS = append(cellMS, ms(time.Since(s)))
			return nil
		})
		refWalls = append(refWalls, (compileTime + ref.wall).Seconds())
		want := make([][]cellFields, len(docs))
		for i, d := range ref.docs {
			if d.err != nil {
				return fmt.Errorf("reference %s: %w", docs[i].name, d.err)
			}
			if want[i], err = cellLines(d.lines); err != nil {
				return fmt.Errorf("reference %s: %w", docs[i].name, err)
			}
		}

		core.ResetPlanCache()
		runtime.GC()
		rc = newRecomposer(t, cost)
		t0 := time.Now()
		t.begin("harness.pass", -1)
		for i, d := range docs {
			if err := r.tracedDoc(rc, d, want[i]); err != nil {
				return err
			}
		}
		t.end()
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		covered := t.totals().covered()
		coverage = append(coverage, (covered-coveredSoFar).Seconds()/refWalls[len(refWalls)-1])
		coveredSoFar = covered
		pairs++
		lastPair = time.Since(pairStart)
	}

	lt := t.totals()
	per := float64(pairs)
	self := func(name string) float64 { return ms(lt.self[name]) / per }
	allocs := func(name string) float64 { return float64(lt.allocs[name]) / per }
	nsPer := func(msTotal float64, attempts int) float64 {
		if attempts == 0 {
			return 0
		}
		return msTotal * 1e6 / float64(attempts)
	}
	var planAll float64
	for _, v := range lt.samples["ensemble.plan_all"] {
		planAll += v
	}

	r.layer("scenario.parse_ms", self("scenario.parse"))
	r.layer("scenario.compile_ms", self("scenario.compile"))
	r.layer("scenario.cell_ms_p50", median(cellMS))
	r.layer("scenario.cell_ms_p99", pctile(cellMS, 0.99))
	r.layer("scenario.cells", float64(len(cellMS))/per)
	r.setCacheLayers(ref.cache)
	r.layer("core.patch_ms", self("core.patch"))
	r.layer("workflow.synth_ms", self("workflow.synth"))
	r.layer("workflow.build_dax_ms", self("workflow.build_dax"))
	r.layer("workflow.build_dax_allocs", allocs("workflow.build_dax"))
	r.layer("dax.clone_ms", self("dax.clone"))
	r.layer("dax.clone_allocs", allocs("dax.clone"))
	r.layer("planner.plan_ms", self("planner.plan"))
	r.layer("planner.plan_allocs", allocs("planner.plan"))
	r.layer("planner.clone_ms", self("planner.clone"))
	r.layer("planner.clone_allocs", allocs("planner.clone"))
	r.layer("planner.cluster_ms", self("planner.cluster"))
	r.layer("ensemble.plan_all_ms", planAll/per)
	r.layer("ensemble.sim_ms", self("ensemble.sim"))
	r.layer("ensemble.ns_per_attempt", nsPer(self("ensemble.sim"), rc.ensembleAttempts))
	r.layer("engine.self_ms", self("engine.run"))
	r.layer("engine.ns_per_attempt", nsPer(self("engine.run"), rc.singleAttempts))
	r.layer("engine.attempts", float64(rc.attempts))
	r.layer("engine.retries", float64(rc.retries))
	r.layer("engine.failovers", float64(rc.failovers))
	r.layer("platform.exec_ms", self("platform.exec")+self("platform.setup"))
	r.layer("platform.ns_per_attempt", nsPer(self("platform.exec"), rc.singleAttempts))
	r.layer("platform.allocs", allocs("platform.exec")+allocs("platform.setup"))
	r.layer("stats.summarize_ms", self("stats.summarize"))
	r.layer("stats.percentile_ms", self("stats.percentile"))
	r.setRuntimeLayers(ref.rt, t.heapPeak)
	// The median over pairs, so that one pair whose passes met different
	// host speeds does not decide the check.
	unattributed := max(0, 100*(1-median(coverage)))
	r.layer("trace.unattributed_pct", unattributed)
	r.layer("trace.overhead_pct", 100*(median(tracedWalls)/median(refWalls)-1))
	if unattributed > maxUnattributedPct {
		r.fail("%.1f%% of the program's time is outside every layer span (bound %d%%)", unattributed, maxUnattributedPct)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d traced pairs, reference %.3fs, traced %.3fs, layer spans cover %.1f%% of the reference\n",
		pairs, median(refWalls), median(tracedWalls), 100*median(coverage))
	return t.write(r.workload, r.seed)
}

// tracedDoc parses, compiles and rebuilds one document under the tracer,
// holding every cell to its reference.
func (r *run) tracedDoc(rc *recomposer, d doc, want []cellFields) error {
	t := rc.t
	var parsed *scenario.Doc
	var c *scenario.Compiled
	var err error
	t.do("scenario.parse", -1, func() { parsed, err = scenario.Parse(d.name, d.body) })
	if err != nil {
		return err
	}
	t.do("scenario.compile", -1, func() { c, err = scenario.Compile(parsed) })
	if err != nil {
		return err
	}
	if len(c.Cells) != len(want) {
		return fmt.Errorf("%s: %d cells, reference has %d", d.name, len(c.Cells), len(want))
	}
	for k, cell := range c.Cells {
		got, err := rc.cell(c, cell)
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			r.fail("traced %s cell %d: %v", d.name, k, err)
		case got != want[k]:
			r.failed++
			r.fail("traced %s cell %d: rebuilt %+v, reference %+v", d.name, k, got, want[k])
		}
	}
	return nil
}

// setCacheLayers reports the plan- and member-DAX-cache counters of one
// pass.
func (r *run) setCacheLayers(c core.CacheStats) {
	r.layer("core.plan_builds", float64(c.PlanBuilds))
	r.layer("core.plan_retrievals", float64(c.PlanRetrievals))
	if c.PlanRetrievals > 0 {
		r.layer("core.plan_hit_ratio", 1-float64(c.PlanBuilds)/float64(c.PlanRetrievals))
	}
	r.layer("core.member_dax_builds", float64(c.MemberDAXBuilds))
}

func (r *run) setRuntimeLayers(rt rtStats, heapPeak uint64) {
	if rt.totalCPU > 0 {
		r.layer("runtime.gc_cpu_pct", 100*rt.gcCPU/rt.totalCPU)
	}
	r.layer("runtime.heap_peak_mib", float64(heapPeak)/(1<<20))
	r.layer("runtime.alloc_objects", float64(rt.allocObjects))
}
