// Horizontal task clustering as a post-planning pass: merge small planned
// jobs into composite grid jobs so one dispatch latency and one software
// install are amortized over many payloads — Pegasus's answer (paper §III)
// to the opportunistic grid's dominant cost, per-job overhead.
//
// Unlike the abstract-level ClusterSize option (which groups tasks before
// site resolution), Cluster runs on an executable Plan, so it can respect
// per-job site bindings of multi-site plans: only jobs of the same
// transformation, bound to the same site, at the same DAG level are merged.
// Same-level grouping guarantees dependency compatibility — two jobs at one
// level are never connected by a path, so folding them into one node cannot
// invert or cycle the DAG.

package planner

import (
	"fmt"

	"pegflow/internal/dax"
)

// ClusterOptions configures the post-planning clustering pass.
type ClusterOptions struct {
	// MaxTasksPerJob caps the payload tasks folded into one composite job.
	// 0 leaves the count unbounded (TargetJobSeconds alone closes
	// composites); 1 disables clustering.
	MaxTasksPerJob int
	// TargetJobSeconds closes a composite once its summed runtime
	// estimate reaches this many reference-speed seconds. Packing is
	// runtime-aware: a task whose own estimate already exceeds the target
	// stays unclustered, so clustering soaks up the many small tasks
	// (where per-job overhead dominates) without serializing the large
	// ones that set the makespan floor. 0 disables the time criterion.
	TargetJobSeconds float64
	// Transformations restricts clustering to the listed transformations;
	// empty means all are eligible. Synthesized stage-in jobs are never
	// clustered.
	Transformations []string
}

// Enabled reports whether the options ask for any clustering.
func (o ClusterOptions) Enabled() bool {
	return o.MaxTasksPerJob > 1 || (o.MaxTasksPerJob == 0 && o.TargetJobSeconds > 0)
}

// Validate checks the options.
func (o ClusterOptions) Validate() error {
	if o.MaxTasksPerJob < 0 {
		return fmt.Errorf("planner: negative MaxTasksPerJob %d", o.MaxTasksPerJob)
	}
	if o.TargetJobSeconds < 0 {
		return fmt.Errorf("planner: negative TargetJobSeconds %v", o.TargetJobSeconds)
	}
	return nil
}

// clusterBucket accumulates the members of one composite under construction.
type clusterBucket struct {
	id    string
	site  string
	tr    string
	ids   []int32
	exec  float64
	level int
}

// Cluster merges same-transformation, same-site, same-level jobs of the
// plan into composite jobs and returns the clustered plan (the input plan
// is not modified). Every original job appears in exactly one output job:
// either unchanged, or as a member of a composite whose ExecSeconds is the
// sum of its members'. Returns the plan unchanged when the options disable
// clustering.
func Cluster(p *Plan, opts ClusterOptions) (*Plan, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Enabled() {
		return p, nil
	}
	eligible := func(j *Job) bool {
		if j.Transformation == StageInTransformation {
			return false
		}
		// Jobs that already fold several tasks (abstract-level clustering
		// or a previous Cluster pass) are left alone.
		if len(j.Tasks) > 0 || len(j.Members) > 0 {
			return false
		}
		if len(opts.Transformations) == 0 {
			return true
		}
		for _, tr := range opts.Transformations {
			if tr == j.Transformation {
				return true
			}
		}
		return false
	}

	g := p.Graph
	levels, err := g.LevelPositions()
	if err != nil {
		return nil, fmt.Errorf("planner: clustering: %w", err)
	}

	// group maps every original job position to its bucket (-1 when
	// unclustered).
	group := unset(g.Len())
	var buckets []*clusterBucket

	for li, level := range levels {
		// Open at most one bucket per (site, transformation) key; close it
		// when full (member cap) or heavy enough (runtime target).
		open := make(map[string]*clusterBucket)
		seq := make(map[string]int)
		for _, i := range level {
			id := g.JobAt(i).ID
			j := p.Info[id]
			if j == nil {
				return nil, fmt.Errorf("planner: clustering: job %q has no planning info", id)
			}
			if !eligible(j) {
				continue
			}
			if opts.TargetJobSeconds > 0 && j.ExecSeconds >= opts.TargetJobSeconds {
				continue
			}
			key := j.Site + "\x00" + j.Transformation
			b := open[key]
			if b == nil {
				b = &clusterBucket{
					id: fmt.Sprintf("cluster_%s_%s_l%d_%d",
						j.Transformation, j.Site, li, seq[key]),
					site: j.Site, tr: j.Transformation, level: li,
				}
				seq[key]++
				open[key] = b
				buckets = append(buckets, b)
			}
			b.ids = append(b.ids, i)
			b.exec += j.ExecSeconds
			if (opts.MaxTasksPerJob > 0 && len(b.ids) >= opts.MaxTasksPerJob) ||
				(opts.TargetJobSeconds > 0 && b.exec >= opts.TargetJobSeconds) {
				delete(open, key)
			}
		}
	}

	// Unwrap singleton buckets: a composite of one task is just the task.
	kept := buckets[:0]
	for _, b := range buckets {
		if len(b.ids) == 1 {
			continue
		}
		for _, i := range b.ids {
			group[i] = int32(len(kept))
		}
		kept = append(kept, b)
	}
	buckets = kept

	out := &Plan{
		Graph:     dax.New(g.Name + "-clustered"),
		Info:      make(map[string]*Job, g.Len()),
		Site:      p.Site,
		Sites:     append([]string(nil), p.Sites...),
		SiteEntry: p.SiteEntry,
	}

	// Emit each job, or each composite at its first member; to maps
	// original positions to output positions.
	to := make([]int32, g.Len())
	bucketPos := unset(len(buckets))
	for i := range int32(g.Len()) {
		gj := g.JobAt(i)
		bi := group[i]
		if bi >= 0 && bucketPos[bi] >= 0 {
			to[i] = bucketPos[bi]
			continue
		}
		to[i] = int32(out.Graph.Len())
		if bi < 0 {
			cp := *gj
			icp := *p.Info[gj.ID]
			if err := out.Graph.AddJob(&cp); err != nil {
				return nil, err
			}
			out.Info[gj.ID] = &icp
			continue
		}
		bucketPos[bi] = to[i]
		b := buckets[bi]
		if g.Job(b.id) != nil {
			return nil, fmt.Errorf("planner: clustering: composite ID %q collides with an existing job", b.id)
		}
		nj := &dax.Job{ID: b.id, Transformation: b.tr}
		cj := &Job{
			ID:             b.id,
			Transformation: b.tr,
			Site:           b.site,
			ExecSeconds:    b.exec,
		}
		for _, mi := range b.ids {
			mid := g.JobAt(mi).ID
			m := p.Info[mid]
			nj.Uses = append(nj.Uses, g.JobAt(mi).Uses...)
			if m.Priority > cj.Priority {
				cj.Priority = m.Priority
			}
			// All members resolve the same transformation at the same
			// site, so they share one install decision — the point of the
			// pass: the stack is staged once per composite, not per task.
			cj.NeedsInstall = m.NeedsInstall
			cj.InstallBytes = m.InstallBytes
			cj.InputBytes += m.InputBytes
			cj.OutputBytes += m.OutputBytes
			cj.Tasks = append(cj.Tasks, mid)
			cj.Members = append(cj.Members, Member{TaskID: mid, ExecSeconds: m.ExecSeconds})
		}
		nj.Priority = cj.Priority
		if err := out.Graph.AddJob(nj); err != nil {
			return nil, err
		}
		out.Info[b.id] = cj
	}

	// Rewire dependencies through the grouping. Same-level grouping makes
	// intra-group edges impossible; an occurrence means the level
	// computation is broken, so fail loudly rather than emit a plan that
	// silently dropped an ordering constraint.
	for c := range int32(g.Len()) {
		for _, pp := range g.ParentsAt(c) {
			if to[pp] == to[c] {
				return nil, fmt.Errorf(
					"planner: clustering folded dependent jobs %q -> %q into composite %q",
					g.JobAt(pp).ID, g.JobAt(c).ID, out.Graph.JobAt(to[c]).ID)
			}
			if err := out.Graph.Link(to[pp], to[c]); err != nil {
				return nil, err
			}
		}
	}

	if err := out.finalize(); err != nil {
		return nil, fmt.Errorf("planner: clustered workflow broken: %w", err)
	}
	return out, nil
}
