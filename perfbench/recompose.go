package main

import (
	"fmt"
	"strconv"
	"time"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/engine"
	"pegflow/internal/ensemble"
	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
	"pegflow/internal/scenario"
	"pegflow/internal/sim/platform"
	"pegflow/internal/stats"
	"pegflow/internal/stats/quantile"
	"pegflow/internal/workflow"
)

// The traced run cannot time layers inside core.Experiment.RunClustered
// (the plan cache is unexported) or inside ensemble.PlanAll (it hides the
// planner), so it rebuilds every cell from the public calls those entry
// points make, in the same order and with the same seeds, and times each
// call. The fidelity check then holds the rebuilt cells to the untraced
// cell lines field for field.

// masterKey is the shape of a single-site plan, as core's plan cache keys
// it for the generated documents (one cost model, one workload name).
type masterKey struct {
	site                     string
	n                        int
	sandhillsSlots, osgSlots int
	params                   workflow.WorkloadParams
}

type master struct {
	plan     *planner.Plan
	chunkIDs []string
}

type daxKey struct {
	n      int
	seed   uint64
	params workflow.WorkloadParams
}

// recomposer rebuilds cells under a tracer. Its plan and member-DAX caches
// stand in for core's and start empty, as core's do after ResetPlanCache.
type recomposer struct {
	t *tracer
	// cost is the tracer's own time in each timed executor call.
	cost    callCost
	masters map[masterKey]*master
	daxes   map[daxKey]*dax.Workflow
	cats    map[*scenario.Doc]planner.Catalogs

	// Engine counters over all cells, and the attempts of each cell path
	// (the denominators of the per-attempt costs).
	attempts, retries, failovers     int
	singleAttempts, ensembleAttempts int
}

func newRecomposer(t *tracer, cost callCost) *recomposer {
	return &recomposer{
		t:       t,
		cost:    cost,
		masters: map[masterKey]*master{},
		daxes:   map[daxKey]*dax.Workflow{},
		cats:    map[*scenario.Doc]planner.Catalogs{},
	}
}

// cell rebuilds one cell of a compiled document.
func (rc *recomposer) cell(c *scenario.Compiled, cell scenario.Cell) (cellFields, error) {
	var f cellFields
	var err error
	if site, ok := singleSite(c.Doc, cell); ok {
		f, err = rc.single(c.Doc, cell, site)
		rc.singleAttempts += f.Attempts
	} else {
		f, err = rc.ensemble(c.Doc, cell)
		rc.ensembleAttempts += f.Attempts
	}
	rc.attempts += f.Attempts
	rc.retries += f.Retries
	rc.failovers += f.Failovers
	return f, err
}

// singleSite mirrors scenario's choice of the plan-cached single-site path
// for the documents the benchmark generates (preset sites named after
// their preset, with at most a slot override).
func singleSite(d *scenario.Doc, cell scenario.Cell) (string, bool) {
	if d.Ensemble != nil || len(cell.SiteSet) != 1 || cell.Failover || len(d.Faults) > 0 || d.RetryBackoff != nil {
		return "", false
	}
	s := siteSpec(d, cell.SiteSet[0])
	if s.Preset == "" || s.Name != s.Preset || s.EvictionRate != nil {
		return "", false
	}
	return s.Preset, true
}

func siteSpec(d *scenario.Doc, name string) *scenario.SiteSpec {
	for i := range d.Sites {
		if d.Sites[i].Name == name {
			return &d.Sites[i]
		}
	}
	return nil
}

func docParams(d *scenario.Doc) workflow.WorkloadParams {
	if p := d.Workload.Params; p != nil {
		return workflow.WorkloadParams{
			NumClusters:    p.NumClusters,
			MaxClusterSize: p.MaxClusterSize,
			SizeExponent:   p.SizeExponent,
			MeanReadLen:    p.MeanReadLen,
		}
	}
	return workflow.PaperWorkload(0).Params
}

func presetSlots(d *scenario.Doc, preset string, fallback int) int {
	for _, s := range d.Sites {
		if s.Preset == preset && s.Slots != nil {
			return *s.Slots
		}
	}
	return fallback
}

func clusterOptions(cs scenario.ClusterSpec) planner.ClusterOptions {
	return planner.ClusterOptions{MaxTasksPerJob: cs.MaxTasks, TargetJobSeconds: cs.TargetSeconds}
}

// platformSeed mixes the chunk count into the cell seed, as core and
// scenario do for every cell.
func platformSeed(cell scenario.Cell) uint64 {
	return cell.Seed ^ (uint64(cell.N) * 0x9e3779b97f4a7c15)
}

// single rebuilds a single-site cell: workload synthesis, the cached
// master plan (DAX build + planning on a miss), clone + runtime patch,
// clustering, the engine over a timed executor, then statistics.
func (rc *recomposer) single(d *scenario.Doc, cell scenario.Cell, site string) (cellFields, error) {
	t, id := rc.t, cell.Index
	n := cell.N
	cost := workflow.DefaultCostModel()
	sand, osg := presetSlots(d, "sandhills", 300), presetSlots(d, "osg", 600)
	var w workflow.Workload
	t.do("workflow.synth", id, func() { w = workflow.CustomWorkload(docParams(d), cell.Seed) })

	var err error
	key := masterKey{site: site, n: n, sandhillsSlots: sand, osgSlots: osg, params: w.Params}
	m := rc.masters[key]
	if m == nil {
		var cats planner.Catalogs
		var abstract *dax.Workflow
		t.do("workflow.catalogs", id, func() { cats, err = workflow.PaperCatalogs(w, sand, osg) })
		if err != nil {
			return cellFields{}, err
		}
		t.do("workflow.build_dax", id, func() {
			abstract, err = workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w, Cost: cost})
		})
		if err != nil {
			return cellFields{}, err
		}
		m = &master{chunkIDs: make([]string, n)}
		t.do("planner.plan", id, func() { m.plan, err = planner.New(abstract, cats, planner.Options{Site: site}) })
		if err != nil {
			return cellFields{}, err
		}
		for i := range m.chunkIDs {
			m.chunkIDs[i] = workflow.ChunkJobID(i)
		}
		rc.masters[key] = m
	}
	var plan *planner.Plan
	t.do("planner.clone", id, func() { plan = m.plan.Clone() })
	t.do("core.patch", id, func() { err = patchRuntimes(plan, m.chunkIDs, cost, w, n) })
	if err != nil {
		return cellFields{}, err
	}
	t.do("planner.cluster", id, func() { plan, err = planner.Cluster(plan, clusterOptions(cell.Cluster)) })
	if err != nil {
		return cellFields{}, err
	}

	var cfg platform.Config
	switch site {
	case "sandhills":
		cfg = platform.Sandhills(cell.Seed)
		cfg.Slots = sand
	case "osg":
		cfg = platform.OSG(cell.Seed)
		cfg.Slots = osg
	default:
		cfg = platform.Cloud(cell.Seed)
	}
	cfg.Seed = platformSeed(cell)
	var ex *platform.Executor
	t.do("platform.setup", id, func() { ex, err = platform.NewExecutor(cfg) })
	if err != nil {
		return cellFields{}, err
	}
	te := &timedExecutor{ex: ex, t: t}
	var res *engine.Result
	start := time.Since(t.t0)
	t.begin("engine.run", id)
	res, err = engine.Run(plan, te, engine.Options{RetryLimit: *d.Retries, Aggregate: d.Outputs.Aggregate})
	// The tracer's reads around each executor call are the harness's
	// time, not the engine's or the platform's.
	calls := time.Duration(te.calls)
	t.add("platform.exec", id, t.inner(), start, max(0, te.dur-calls*rc.cost.inside), te.allocs)
	t.add("harness.exec_timing", id, t.inner(), start, calls*rc.cost.total, 0)
	t.end()
	if err != nil {
		return cellFields{}, err
	}
	var sum stats.Summary
	t.do("stats.summarize", id, func() {
		sum = stats.Summarize(res.Log, res.Makespan)
		_ = stats.PerTransformation(res.Log)
	})
	t.do("stats.percentile", id, func() { percentiles(d, []*kickstart.Log{res.Log}) })
	return cellFields{
		Makespan:  sum.WallTime,
		Jobs:      sum.Jobs,
		Attempts:  sum.Attempts,
		Retries:   res.Retries,
		Evictions: res.Evictions,
		Failovers: res.Failovers,
		Success:   res.Success,
	}, nil
}

// patchRuntimes writes one seed's chunk runtimes into a cloned master
// plan, through the same "%.3f" round trip the DAX builder's runtime
// profiles take.
func patchRuntimes(plan *planner.Plan, chunkIDs []string, cost workflow.CostModel, w workflow.Workload, n int) error {
	chunks, err := cost.ChunkSeconds(w, n)
	if err != nil {
		return err
	}
	for i, id := range chunkIDs {
		j := plan.Info[id]
		if j == nil {
			return fmt.Errorf("job %q missing from master plan", id)
		}
		formatted := fmt.Sprintf("%.3f", chunks[i])
		if j.ExecSeconds, err = strconv.ParseFloat(formatted, 64); err != nil {
			return err
		}
		if gj := plan.Graph.Job(id); gj != nil {
			gj.SetProfile("pegasus", "runtime", formatted)
		}
	}
	return nil
}

// ensemble rebuilds an ensemble-path cell: member workloads and DAXes
// (cached per shape and seed, cloned per use), member planning as
// ensemble.PlanAll does it, the platform pool, and ensemble.Run.
func (rc *recomposer) ensemble(d *scenario.Doc, cell scenario.Cell) (cellFields, error) {
	t, id := rc.t, cell.Index
	policy := cell.Policy
	if policy == "" {
		policy = planner.PolicyDataAware
	}
	members := 1
	maxInFlight := 0
	if d.Ensemble != nil {
		members, maxInFlight = d.Ensemble.Workflows, d.Ensemble.MaxInFlight
	}
	// scenario.Compile builds these once per document.
	var err error
	cats, ok := rc.cats[d]
	if !ok {
		t.do("harness.catalogs", id, func() { cats, err = presetCatalogs(d) })
		if err != nil {
			return cellFields{}, err
		}
		rc.cats[d] = cats
	}

	srcs := make([]ensemble.WorkflowSource, members)
	for i := range srcs {
		var w workflow.Workload
		t.do("workflow.synth", id, func() { w = workflow.CustomWorkload(docParams(d), cell.Seed+uint64(i)) })
		key := daxKey{n: cell.N, seed: w.Seed, params: w.Params}
		m := rc.daxes[key]
		if m == nil {
			t.do("workflow.build_dax", id, func() { m, err = workflow.BuildDAX(workflow.BuilderConfig{N: cell.N, Workload: w}) })
			if err != nil {
				return cellFields{}, err
			}
			rc.daxes[key] = m
		}
		var abstract *dax.Workflow
		t.do("dax.clone", id, func() { abstract = m.Clone() })
		abstract.Name = fmt.Sprintf("%s-wf%02d", abstract.Name, i)
		srcs[i] = ensemble.WorkflowSource{
			Name:       fmt.Sprintf("wf%02d", i),
			Abstract:   abstract,
			Priority:   members - i,
			RetryLimit: *d.Retries,
		}
	}

	var specs []ensemble.Spec
	t.do("ensemble.plan_all", id, func() { specs, err = rc.planMembers(srcs, cats, policy, cell) })
	if err != nil {
		return cellFields{}, err
	}

	var cfgs []platform.Config
	for _, name := range cell.SiteSet {
		cfg, err := siteConfig(siteSpec(d, name), platformSeed(cell))
		if err != nil {
			return cellFields{}, err
		}
		cfgs = append(cfgs, cfg)
	}
	var pool *platform.MultiExecutor
	t.do("platform.setup", id, func() { pool, err = platform.NewMultiExecutor(cfgs) })
	if err != nil {
		return cellFields{}, err
	}
	var res *ensemble.Result
	t.do("ensemble.sim", id, func() {
		res, err = ensemble.Run(pool, specs, ensemble.Options{MaxInFlight: maxInFlight, Aggregate: d.Outputs.Aggregate})
	})
	if err != nil {
		return cellFields{}, err
	}

	f := cellFields{Success: true}
	var logs []*kickstart.Log
	t.do("stats.summarize", id, func() {
		rep := res.Report(policy)
		f.Makespan, f.Retries, f.Evictions, f.Failovers = rep.Makespan, rep.TotalRetries, rep.TotalEvictions, rep.TotalFailovers
		for _, w := range res.Workflows {
			sum := stats.Summarize(w.Result.Log, w.Result.Makespan)
			f.Jobs += sum.Jobs
			f.Attempts += sum.Attempts
			f.Success = f.Success && w.Result.Success
			logs = append(logs, w.Result.Log)
		}
	})
	t.do("stats.percentile", id, func() { percentiles(d, logs) })
	return f, nil
}

// planMembers plans every member as ensemble.PlanAll does, one at a time,
// with the planner calls timed.
func (rc *recomposer) planMembers(srcs []ensemble.WorkflowSource, cats planner.Catalogs, policy string, cell scenario.Cell) ([]ensemble.Spec, error) {
	specs := make([]ensemble.Spec, len(srcs))
	for i, src := range srcs {
		pol, err := planner.NewPolicy(policy)
		if err != nil {
			return nil, err
		}
		var p *planner.Plan
		rc.t.do("planner.plan", cell.Index, func() {
			p, err = planner.NewMulti(src.Abstract, cats, planner.MultiOptions{Sites: cell.SiteSet, Policy: pol, AddStageIn: true})
		})
		if err != nil {
			return nil, err
		}
		if copts := clusterOptions(cell.Cluster); copts.Enabled() {
			rc.t.do("planner.cluster", cell.Index, func() { p, err = planner.Cluster(p, copts) })
			if err != nil {
				return nil, err
			}
		}
		specs[i] = ensemble.Spec{Name: src.Name, Plan: p, Priority: src.Priority, RetryLimit: src.RetryLimit}
		if cell.Failover {
			fo, err := planner.NewFailover(cats, cell.SiteSet)
			if err != nil {
				return nil, err
			}
			specs[i].Retry = fo.Resite
		}
	}
	return specs, nil
}

// percentiles computes the document's kickstart and waiting percentiles
// the way scenario rows do: merged sketches for aggregated logs, exact
// order statistics otherwise.
func percentiles(d *scenario.Doc, logs []*kickstart.Log) {
	ps := d.Outputs.Percentiles
	if len(ps) == 0 {
		return
	}
	if d.Outputs.Aggregate {
		exec, wait := quantile.NewSketch(), quantile.NewSketch()
		for _, lg := range logs {
			if agg := lg.Aggregates(); agg != nil {
				exec.Merge(agg.ExecSketch)
				wait.Merge(agg.WaitSketch)
			}
		}
		quantile.Of(exec, ps...)
		quantile.Of(wait, ps...)
		return
	}
	var exec, wait []float64
	for _, lg := range logs {
		for _, r := range lg.Successes() {
			exec = append(exec, r.Exec())
			wait = append(wait, r.Waiting())
		}
	}
	stats.PercentilesOf(exec, ps...)
	stats.PercentilesOf(wait, ps...)
}

// siteConfig builds a preset site's platform model for one cell. The
// benchmark's documents override only slots and the eviction rate.
func siteConfig(s *scenario.SiteSpec, seed uint64) (platform.Config, error) {
	var cfg platform.Config
	switch s.Preset {
	case "sandhills":
		cfg = platform.Sandhills(seed)
		cfg.Slots = 300
	case "osg":
		cfg = platform.OSG(seed)
	case "cloud":
		cfg = platform.Cloud(seed)
	default:
		return cfg, fmt.Errorf("site %q: the traced run rebuilds preset sites only", s.Name)
	}
	cfg.Name = s.Name
	if s.Slots != nil {
		cfg.Slots = *s.Slots
	}
	if s.EvictionRate != nil {
		cfg.EvictionRate = *s.EvictionRate
	}
	return cfg, nil
}

// presetCatalogs builds the catalogs scenario.Compile derives for a
// document of preset sites: presets keep the paper's install semantics
// (only OSG downloads its software) and stage-in bandwidths.
func presetCatalogs(d *scenario.Doc) (planner.Catalogs, error) {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	stageIn := map[string]float64{"sandhills": 200, "osg": 40, "cloud": 80}
	for i := range d.Sites {
		s := &d.Sites[i]
		cfg, err := siteConfig(s, 0)
		if err != nil {
			return cats, err
		}
		shared := s.Preset != "osg"
		if err := cats.Sites.Add(&catalog.Site{
			Name: s.Name, Arch: "x86_64", OS: "linux",
			Slots: cfg.Slots, SpeedFactor: cfg.SpeedFactor,
			Heterogeneous:  cfg.SpeedJitter >= 0.2,
			SharedSoftware: shared,
			StageInMBps:    stageIn[s.Preset],
		}); err != nil {
			return cats, err
		}
		for _, name := range append(workflow.Transformations(), workflow.TrSerial) {
			tr := &catalog.Transformation{Name: name, Site: s.Name}
			if shared {
				tr.PFN, tr.Installed = "/opt/pegflow/"+name, true
			} else {
				tr.PFN = name + ".tar.gz"
				tr.InstallBytes = int64(workflow.PythonInstallBytes + workflow.BiopythonInstallBytes)
				if name == workflow.TrRunCAP3 || name == workflow.TrSerial {
					tr.InstallBytes += workflow.CAP3InstallBytes
				}
			}
			if err := cats.Transformations.Add(tr); err != nil {
				return cats, err
			}
		}
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		if err := cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/work/data/" + lfn}); err != nil {
			return cats, err
		}
	}
	return cats, nil
}

// timedExecutor forwards to a platform executor and sums the time and
// heap objects spent inside its calls. It keeps the executor's optional
// capabilities (delayed submission, record recycling) visible to the
// engine.
type timedExecutor struct {
	ex     *platform.Executor
	t      *tracer
	dur    time.Duration
	allocs uint64
	calls  int
}

func (e *timedExecutor) enter() (time.Time, uint64) { return time.Now(), e.t.allocs() }

func (e *timedExecutor) exit(start time.Time, a0 uint64) {
	e.allocs += e.t.allocs() - a0
	e.dur += time.Since(start)
	e.calls++
}

// callCost is what timing one executor call costs: in total, and inside
// the timed interval (and so inside platform.exec).
type callCost struct{ total, inside time.Duration }

// execCallCost measures callCost on empty calls: the least mean over a few
// batches.
func execCallCost(t *tracer) callCost {
	const batch = 2000
	best := callCost{1 << 62, 1 << 62}
	for range 5 {
		e := &timedExecutor{t: t}
		t0 := time.Now()
		for range batch {
			e.exit(e.enter())
		}
		best.total = min(best.total, time.Since(t0)/batch)
		best.inside = min(best.inside, e.dur/batch)
	}
	return best
}

func (e *timedExecutor) Submit(job *planner.Job, attempt int) {
	s, a := e.enter()
	e.ex.Submit(job, attempt)
	e.exit(s, a)
}

func (e *timedExecutor) Next() engine.Event {
	s, a := e.enter()
	ev := e.ex.Next()
	e.exit(s, a)
	return ev
}

func (e *timedExecutor) Now() float64 {
	s, a := e.enter()
	now := e.ex.Now()
	e.exit(s, a)
	return now
}

func (e *timedExecutor) SubmitAfter(job *planner.Job, attempt int, delay float64) {
	s, a := e.enter()
	e.ex.SubmitAfter(job, attempt, delay)
	e.exit(s, a)
}

func (e *timedExecutor) Recycle(r *kickstart.Record) {
	s, a := e.enter()
	e.ex.Recycle(r)
	e.exit(s, a)
}
