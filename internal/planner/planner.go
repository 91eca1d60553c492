package planner

import (
	"fmt"
	"sort"
	"strconv"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// Job is one executable job in a plan.
type Job struct {
	// ID identifies the executable job (equal to the abstract job ID
	// except for synthesized stage-in and clustered jobs).
	ID string
	// Transformation is the logical executable name.
	Transformation string
	// Args are the command-line arguments (empty for clustered jobs;
	// the per-task arguments live in the task list).
	Args []string
	// Site is the execution site.
	Site string
	// Priority orders ready jobs; higher runs first.
	Priority int
	// ExecSeconds is the estimated execution time on a reference-speed
	// node (from the job's "pegasus::runtime" profile; 0 = unknown).
	ExecSeconds float64
	// NeedsInstall marks jobs that must download and install their
	// software stack on the node before executing (OSG-style sites).
	NeedsInstall bool
	// InstallBytes is the size of the software stack to stage when
	// NeedsInstall is set.
	InstallBytes int64
	// InputBytes and OutputBytes total the declared file sizes.
	InputBytes, OutputBytes int64
	// Tasks lists the abstract job IDs folded into this executable job
	// (len > 1 only for clustered jobs; empty for synthesized jobs).
	Tasks []string
	// Members lists the payload tasks of a composite job built by the
	// post-planning Cluster pass, in on-node execution order, with their
	// per-task runtime estimates. Executors that understand Members run
	// the payloads sequentially on one slot — one dispatch and one
	// software install amortized over all of them — and emit one
	// kickstart record per member. Empty for ordinary jobs.
	Members []Member
}

// Member is one payload task folded into a composite (clustered) job.
type Member struct {
	// TaskID is the folded executable job's ID.
	TaskID string
	// ExecSeconds is the member's reference-speed runtime estimate.
	ExecSeconds float64
}

// Plan is an executable workflow bound to a site.
type Plan struct {
	// Graph holds the executable jobs and their dependencies. Its Job
	// entries are structural only; per-job planning attributes live in
	// Info.
	Graph *dax.Workflow
	// Info maps executable job ID to its planning attributes.
	Info map[string]*Job
	// Site is the execution site name. For multi-site plans (NewMulti) it
	// is the comma-joined site list; per-job sites live in Info.
	Site string
	// Sites lists the target sites of a multi-site plan, in the order
	// given to NewMulti. It is nil for single-site plans.
	Sites []string
	// SiteEntry is the resolved site catalog entry. It is nil for
	// multi-site plans, whose jobs resolve sites individually.
	SiteEntry *catalog.Site

	// index is the immutable dense-integer topology (see Indexed), built
	// at plan construction and shared with clones; indexedGraph and
	// indexedVersion record the graph state it was built for.
	index          *Index
	indexedGraph   *dax.Workflow
	indexedVersion uint64
	// jobsByPos aligns this plan's *Job values with index.Order.
	jobsByPos []*Job
}

// Jobs returns the plan's jobs in insertion order.
func (p *Plan) Jobs() []*Job {
	out := make([]*Job, 0, len(p.Info))
	for _, j := range p.Graph.Jobs() {
		out = append(out, p.Info[j.ID])
	}
	return out
}

// Job returns the planned job with the given ID, or nil.
func (p *Plan) Job(id string) *Job { return p.Info[id] }

// TotalExecSeconds sums the estimated execution time over all jobs — the
// serial-work content of the plan.
func (p *Plan) TotalExecSeconds() float64 {
	var sum float64
	for _, j := range p.Info {
		sum += j.ExecSeconds
	}
	return sum
}

// Options configures planning.
type Options struct {
	// Site is the target execution site (required).
	Site string
	// AddStageIn synthesizes a stage-in job for external inputs that
	// have replicas registered away from the site.
	AddStageIn bool
	// ClusterSize is the horizontal clustering factor: the maximum
	// number of same-transformation, same-level tasks merged into one
	// clustered job. 0 or 1 disables clustering.
	ClusterSize int
	// ClusterTransformations restricts clustering to the listed
	// transformations; empty means all are eligible.
	ClusterTransformations []string
}

// Catalogs bundles the three catalogs planning consults.
type Catalogs struct {
	Sites           *catalog.SiteCatalog
	Transformations *catalog.TransformationCatalog
	Replicas        *catalog.ReplicaCatalog
}

// StageInTransformation names the synthesized data staging transformation.
const StageInTransformation = "stage_in"

// New maps the abstract workflow onto the target site.
func New(abstract *dax.Workflow, cats Catalogs, opts Options) (*Plan, error) {
	if err := abstract.Validate(); err != nil {
		return nil, fmt.Errorf("planner: invalid abstract workflow: %w", err)
	}
	if opts.Site == "" {
		return nil, fmt.Errorf("planner: no target site given")
	}
	site, err := cats.Sites.Lookup(opts.Site)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}

	work := abstract
	if opts.ClusterSize > 1 {
		work, err = clusterTasks(abstract, opts)
		if err != nil {
			return nil, err
		}
	}

	plan := &Plan{
		Graph:     dax.New(work.Name + "-" + opts.Site),
		Info:      make(map[string]*Job, work.Len()),
		Site:      opts.Site,
		SiteEntry: site,
	}

	// Resolve each job against the transformation catalog and compute
	// its planning attributes. Jobs keep their positions, so the edges
	// copy over as they are.
	plan.Graph.Grow(work.Len() + 1)
	gjobs := make([]dax.Job, work.Len())
	pjobs := make([]Job, work.Len())
	for i := range int32(work.Len()) {
		aj := work.JobAt(i)
		tc, err := cats.Transformations.Lookup(aj.Transformation, opts.Site)
		if err != nil {
			return nil, fmt.Errorf("planner: job %q: %w", aj.ID, err)
		}
		pj := &pjobs[i]
		if err := jobAttributes(pj, aj); err != nil {
			return nil, err
		}
		pj.Site = opts.Site
		if !tc.Installed {
			if site.SharedSoftware {
				return nil, fmt.Errorf(
					"planner: transformation %q not installed at shared-software site %q",
					aj.Transformation, opts.Site)
			}
			pj.NeedsInstall = true
			pj.InstallBytes = tc.InstallBytes
		}
		gj := &gjobs[i]
		*gj = dax.Job{ID: aj.ID, Transformation: aj.Transformation, Uses: aj.Uses, Priority: aj.Priority}
		if err := plan.Graph.AddJob(gj); err != nil {
			return nil, err
		}
		plan.Info[aj.ID] = pj
	}
	plan.Graph.CopyEdges(work, nil)

	if opts.AddStageIn {
		if err := addStageIn(plan, work, cats); err != nil {
			return nil, err
		}
	}

	if err := plan.finalize(); err != nil {
		return nil, err
	}
	return plan, nil
}

// jobAttributes fills pj with the abstract job's site-independent planning
// attributes: the pegasus::runtime estimate, the folded task list of
// clustered jobs, and the declared input/output byte totals. The caller
// fills in the site-dependent fields (Site, NeedsInstall, InstallBytes).
func jobAttributes(pj *Job, aj *dax.Job) error {
	*pj = Job{
		ID:             aj.ID,
		Transformation: aj.Transformation,
		Args:           aj.Args,
		Priority:       aj.Priority,
	}
	if rt := aj.Profile("pegasus", "runtime"); rt != "" {
		v, err := strconv.ParseFloat(rt, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("planner: job %q: bad pegasus::runtime %q", aj.ID, rt)
		}
		pj.ExecSeconds = v
	}
	if nt := aj.Profile("pegasus", "clustered_tasks"); nt != "" {
		count, err := strconv.Atoi(nt)
		if err != nil || count < 1 {
			return fmt.Errorf("planner: job %q: bad clustered_tasks %q", aj.ID, nt)
		}
		for i := 0; i < count; i++ {
			tid := aj.Profile("pegasus", fmt.Sprintf("task_%03d", i))
			if tid == "" {
				return fmt.Errorf("planner: job %q: missing task_%03d profile", aj.ID, i)
			}
			pj.Tasks = append(pj.Tasks, tid)
		}
	}
	for _, u := range aj.Uses {
		if u.Link == dax.LinkInput {
			pj.InputBytes += u.Size
		} else {
			pj.OutputBytes += u.Size
		}
	}
	return nil
}

// addStageIn synthesizes a single stage_in job transferring every external
// input (a file consumed but produced by no job) to the site, and makes it
// a parent of all consumers. External inputs must have a registered
// replica. The plan graph's first work.Len() positions hold work's jobs.
func addStageIn(plan *Plan, work *dax.Workflow, cats Catalogs) error {
	externals, consumers, err := externalInputs(work, cats, 1, func(int32) int { return 0 })
	if err != nil || len(externals[0]) == 0 {
		return err
	}
	return addStageJob(plan, "stage_in_0", plan.SiteEntry, externals[0], consumers[0])
}

// external is one external input file staged to a site.
type external struct {
	lfn  string
	size int64
}

// externalInputs finds the external inputs of work — files consumed but
// produced by no job — grouped into nbuckets by the bucket of each
// consumer: per bucket, the distinct files sorted by name (sized as first
// declared), and the work positions of the jobs consuming any of them.
// Every external input must have a registered replica.
func externalInputs(work *dax.Workflow, cats Catalogs, nbuckets int, bucket func(pos int32) int) ([][]external, [][]int32, error) {
	outputs := 0
	for i := range int32(work.Len()) {
		for _, u := range work.JobAt(i).Uses {
			if u.Link == dax.LinkOutput {
				outputs++
			}
		}
	}
	produced := make(map[string]bool, outputs)
	for i := range int32(work.Len()) {
		for _, u := range work.JobAt(i).Uses {
			if u.Link == dax.LinkOutput {
				produced[u.LFN] = true
			}
		}
	}
	type staged struct {
		bucket int
		lfn    string
	}
	seen := make(map[staged]bool)
	externals := make([][]external, nbuckets)
	consumers := make([][]int32, nbuckets)
	for i := range int32(work.Len()) {
		j := work.JobAt(i)
		b := bucket(i)
		consumes := false
		for _, u := range j.Uses {
			if u.Link != dax.LinkInput || produced[u.LFN] {
				continue
			}
			if !cats.Replicas.Has(u.LFN) {
				return nil, nil, fmt.Errorf("planner: external input %q of job %q has no replica", u.LFN, j.ID)
			}
			consumes = true
			if key := (staged{b, u.LFN}); !seen[key] {
				seen[key] = true
				externals[b] = append(externals[b], external{u.LFN, u.Size})
			}
		}
		if consumes {
			consumers[b] = append(consumers[b], i)
		}
	}
	for _, exts := range externals {
		sort.Slice(exts, func(i, j int) bool { return exts[i].lfn < exts[j].lfn })
	}
	return externals, consumers, nil
}

// addStageJob adds a stage_in job with the given ID on site, producing the
// external files and feeding the consumer positions. It runs on the
// submit side: it never needs installs and gets top priority so transfers
// start immediately.
func addStageJob(plan *Plan, id string, site *catalog.Site, exts []external, consumers []int32) error {
	gj := &dax.Job{ID: id, Transformation: StageInTransformation}
	var totalBytes int64
	for _, e := range exts {
		gj.Uses = append(gj.Uses, dax.Use{LFN: e.lfn, Link: dax.LinkOutput, Size: e.size})
		totalBytes += e.size
	}
	stage := int32(plan.Graph.Len())
	if err := plan.Graph.AddJob(gj); err != nil {
		return err
	}
	plan.Info[id] = &Job{
		ID:             id,
		Transformation: StageInTransformation,
		Site:           site.Name,
		ExecSeconds:    float64(totalBytes) / (stageInMBps(site) * 1e6),
		OutputBytes:    totalBytes,
		Priority:       1 << 20,
	}
	for _, c := range consumers {
		if err := plan.Graph.Link(stage, c); err != nil {
			return err
		}
	}
	return nil
}

// clusterTasks merges same-transformation jobs at the same DAG level into
// clustered jobs of at most opts.ClusterSize tasks each, returning a new
// abstract workflow. A clustered job:
//
//   - has ID "cluster_<transformation>_l<level>_<index>";
//   - sums its tasks' pegasus::runtime estimates (tasks run sequentially
//     on one slot);
//   - takes the union of its tasks' file usages and dependencies.
func clusterTasks(abstract *dax.Workflow, opts Options) (*dax.Workflow, error) {
	eligible := func(tr string) bool {
		if len(opts.ClusterTransformations) == 0 {
			return true
		}
		for _, t := range opts.ClusterTransformations {
			if t == tr {
				return true
			}
		}
		return false
	}

	levels, err := abstract.LevelPositions()
	if err != nil {
		return nil, err
	}
	// group[i] indexes the bucket of abstract job i; -1 leaves it
	// unclustered.
	group := unset(abstract.Len())
	type bucket struct {
		id    string
		tasks []int32
	}
	var buckets []bucket
	for li, level := range levels {
		byTr := make(map[string][]int32)
		var trOrder []string
		for _, i := range level {
			tr := abstract.JobAt(i).Transformation
			if !eligible(tr) || opts.ClusterSize <= 1 {
				continue
			}
			if _, ok := byTr[tr]; !ok {
				trOrder = append(trOrder, tr)
			}
			byTr[tr] = append(byTr[tr], i)
		}
		for _, tr := range trOrder {
			ids := byTr[tr]
			for i := 0; i < len(ids); i += opts.ClusterSize {
				chunk := ids[i:min(i+opts.ClusterSize, len(ids))]
				if len(chunk) == 1 {
					continue
				}
				for _, id := range chunk {
					group[id] = int32(len(buckets))
				}
				cid := fmt.Sprintf("cluster_%s_l%d_%d", tr, li, i/opts.ClusterSize)
				buckets = append(buckets, bucket{id: cid, tasks: chunk})
			}
		}
	}

	// Emit each job, or each bucket at its first task; to maps abstract
	// positions to output positions.
	out := dax.New(abstract.Name)
	to := make([]int32, abstract.Len())
	bucketPos := unset(len(buckets))
	for i := range int32(abstract.Len()) {
		aj := abstract.JobAt(i)
		b := group[i]
		if b >= 0 && bucketPos[b] >= 0 {
			to[i] = bucketPos[b]
			continue
		}
		to[i] = int32(out.Len())
		if b < 0 {
			cp := *aj
			if err := out.AddJob(&cp); err != nil {
				return nil, err
			}
			continue
		}
		bucketPos[b] = to[i]
		nj := &dax.Job{ID: buckets[b].id, Transformation: aj.Transformation}
		var runtime float64
		for _, t := range buckets[b].tasks {
			task := abstract.JobAt(t)
			nj.Uses = append(nj.Uses, task.Uses...)
			if rt := task.Profile("pegasus", "runtime"); rt != "" {
				v, err := strconv.ParseFloat(rt, 64)
				if err != nil {
					return nil, fmt.Errorf("planner: task %q: bad runtime %q", task.ID, rt)
				}
				runtime += v
			}
			if task.Priority > nj.Priority {
				nj.Priority = task.Priority
			}
		}
		if runtime > 0 {
			nj.SetProfile("pegasus", "runtime", strconv.FormatFloat(runtime, 'f', -1, 64))
		}
		nj.SetProfile("pegasus", "clustered_tasks", strconv.Itoa(len(buckets[b].tasks)))
		// Stash task membership in profiles so New can recover it without
		// a side channel between the two passes.
		for k, t := range buckets[b].tasks {
			nj.SetProfile("pegasus", fmt.Sprintf("task_%03d", k), abstract.JobAt(t).ID)
		}
		if err := out.AddJob(nj); err != nil {
			return nil, err
		}
	}
	// Rewire dependencies through the grouping, skipping intra-group
	// edges.
	for c := range int32(abstract.Len()) {
		for _, p := range abstract.ParentsAt(c) {
			if to[p] != to[c] {
				if err := out.Link(to[p], to[c]); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// unset returns n positions, all -1.
func unset(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	return out
}
