// Multi-site planning: map an abstract workflow onto a *set* of execution
// sites under a pluggable site-selection policy — the paper's central
// scenario of one WMS driving both a campus cluster and an opportunistic
// grid at once (§III, §VI), generalized so any number of heterogeneous
// backends can share one executable plan.
//
// Every job is resolved against the transformation catalog at its chosen
// site, and install steps are injected only where the site lacks a shared
// software stack (the OSG case); stage-in jobs are synthesized per site, so
// data transfers are paid once per site rather than once per workflow.

package planner

import (
	"fmt"
	"sort"
	"strings"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
)

// PolicyJob is the job information a site-selection policy sees.
type PolicyJob struct {
	// ID is the executable job ID.
	ID string
	// Transformation is the logical executable name.
	Transformation string
	// ExecSeconds is the estimated reference-speed runtime (0 = unknown).
	ExecSeconds float64
	// InputBytes and OutputBytes total the declared file sizes.
	InputBytes, OutputBytes int64
}

// Candidate is one site at which a job's transformation resolves.
type Candidate struct {
	// Site is the site catalog entry.
	Site *catalog.Site
	// Entry is the transformation catalog entry at that site.
	Entry *catalog.Transformation
}

// SitePolicy chooses an execution site for each job during multi-site
// planning. Choose returns an index into cands (always non-empty, ordered
// as in MultiOptions.Sites). Policies may carry state (e.g. accumulated
// per-site load); a fresh policy instance is used per planning run, so
// plans are independent of each other.
type SitePolicy interface {
	// Name identifies the policy ("round-robin", "data-aware", ...).
	Name() string
	// Choose picks the candidate for the job. cands is shared between
	// jobs of one transformation and must not be modified.
	Choose(job PolicyJob, cands []Candidate) int
}

// Policy names accepted by NewPolicy.
const (
	PolicyRoundRobin   = "round-robin"
	PolicyDataAware    = "data-aware"
	PolicyRuntimeAware = "runtime-aware"
)

// PolicyNames lists the built-in site-selection policies.
func PolicyNames() []string {
	return []string{PolicyRoundRobin, PolicyDataAware, PolicyRuntimeAware}
}

// NewPolicy returns a fresh instance of a built-in policy by name.
func NewPolicy(name string) (SitePolicy, error) {
	switch name {
	case PolicyRoundRobin:
		return &roundRobinPolicy{}, nil
	case PolicyDataAware:
		return &costPolicy{name: PolicyDataAware, includeData: true, load: map[string]float64{}}, nil
	case PolicyRuntimeAware:
		return &costPolicy{name: PolicyRuntimeAware, load: map[string]float64{}}, nil
	default:
		return nil, fmt.Errorf("planner: unknown site policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// roundRobinPolicy cycles through the candidate sites in order, ignoring
// job attributes — the baseline spreading strategy.
type roundRobinPolicy struct {
	next int
}

func (p *roundRobinPolicy) Name() string { return PolicyRoundRobin }

func (p *roundRobinPolicy) Choose(job PolicyJob, cands []Candidate) int {
	i := p.next % len(cands)
	p.next++
	return i
}

// costPolicy greedily minimizes the estimated completion cost of each job:
// accumulated site load (normalized by slot count) plus the job's scaled
// execution time, and — for the data-aware variant — the time to move the
// job's inputs and software stack to the site at its staging bandwidth.
type costPolicy struct {
	name        string
	includeData bool
	// load accumulates assigned work seconds per site.
	load map[string]float64
}

func (p *costPolicy) Name() string { return p.name }

func (p *costPolicy) Choose(job PolicyJob, cands []Candidate) int {
	best, bestCost := 0, 0.0
	for i, c := range cands {
		exec := job.ExecSeconds * c.Site.SpeedFactor
		cost := p.load[c.Site.Name]/float64(c.Site.Slots) + exec
		if p.includeData {
			cost += dataSeconds(job, c)
		}
		if i == 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	chosen := cands[best]
	p.load[chosen.Site.Name] += job.ExecSeconds * chosen.Site.SpeedFactor
	if p.includeData {
		p.load[chosen.Site.Name] += dataSeconds(job, chosen)
	}
	return best
}

// dataSeconds estimates the time to stage the job's inputs — and, where
// the transformation is not preinstalled, its software stack — to the
// candidate site.
func dataSeconds(job PolicyJob, c Candidate) float64 {
	bytes := job.InputBytes
	if !c.Entry.Installed {
		bytes += c.Entry.InstallBytes
	}
	return float64(bytes) / (stageInMBps(c.Site) * 1e6)
}

// siteCandidates returns the sites at which the transformation resolves,
// in the given site order: preinstalled entries always qualify, uninstalled
// entries only where per-job installs are allowed (no shared software
// stack). Both NewMulti's site selection and Failover's retry-elsewhere
// re-resolution go through this, so a failover lands exactly where the
// planner could have placed the job in the first place.
func siteCandidates(cats Catalogs, sites []*catalog.Site, transformation string) []Candidate {
	var cands []Candidate
	for _, s := range sites {
		tc, err := cats.Transformations.Lookup(transformation, s.Name)
		if err != nil {
			continue
		}
		if !tc.Installed && s.SharedSoftware {
			// A shared-software site refuses per-job installs.
			continue
		}
		cands = append(cands, Candidate{Site: s, Entry: tc})
	}
	return cands
}

// stageInMBps returns the site's staging bandwidth, defaulting to 100 MB/s
// when the catalog leaves it unset.
func stageInMBps(s *catalog.Site) float64 {
	if s.StageInMBps <= 0 {
		return 100
	}
	return s.StageInMBps
}

// MultiOptions configures multi-site planning.
type MultiOptions struct {
	// Sites are the target execution sites (at least one, all distinct).
	Sites []string
	// Policy selects a site per job; nil means round-robin.
	Policy SitePolicy
	// AddStageIn synthesizes one stage-in job per site holding external
	// inputs consumed there.
	AddStageIn bool
	// ClusterSize and ClusterTransformations configure horizontal task
	// clustering exactly as in Options.
	ClusterSize            int
	ClusterTransformations []string
}

// NewMulti maps the abstract workflow onto a set of sites, choosing an
// execution site per job via the policy. The resulting Plan has per-job
// sites in Info and lists the target sites in Plan.Sites; Plan.SiteEntry
// is nil for multi-site plans.
func NewMulti(abstract *dax.Workflow, cats Catalogs, opts MultiOptions) (*Plan, error) {
	if err := abstract.Validate(); err != nil {
		return nil, fmt.Errorf("planner: invalid abstract workflow: %w", err)
	}
	if len(opts.Sites) == 0 {
		return nil, fmt.Errorf("planner: no target sites given")
	}
	seen := make(map[string]bool, len(opts.Sites))
	sites := make([]*catalog.Site, 0, len(opts.Sites))
	for _, name := range opts.Sites {
		if seen[name] {
			return nil, fmt.Errorf("planner: duplicate target site %q", name)
		}
		seen[name] = true
		s, err := cats.Sites.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		sites = append(sites, s)
	}
	policy := opts.Policy
	if policy == nil {
		policy = &roundRobinPolicy{}
	}

	work := abstract
	if opts.ClusterSize > 1 {
		var err error
		work, err = clusterTasks(abstract, Options{
			ClusterSize:            opts.ClusterSize,
			ClusterTransformations: opts.ClusterTransformations,
		})
		if err != nil {
			return nil, err
		}
	}

	plan := &Plan{
		Graph: dax.New(work.Name + "-multi"),
		Info:  make(map[string]*Job, work.Len()),
		Site:  strings.Join(opts.Sites, ","),
		Sites: append([]string(nil), opts.Sites...),
	}

	// Choose sites in topological order so load-based policies see jobs
	// roughly in execution order; the order is deterministic (Kahn's
	// algorithm with insertion-order tie-breaking). Jobs enter the plan
	// graph in that order: to maps work positions to plan positions.
	order, err := work.TopoPositions()
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	to := make([]int32, len(order))
	plan.Graph.Grow(len(order) + len(sites))
	gjobs := make([]dax.Job, len(order))
	pjobs := make([]Job, len(order))
	candsByTr := make(map[string][]Candidate)
	for k, i := range order {
		to[i] = int32(k)
		aj := work.JobAt(i)
		pj := &pjobs[k]
		if err := jobAttributes(pj, aj); err != nil {
			return nil, err
		}

		// Candidate sites: those where the transformation resolves and
		// is either preinstalled or installable (no shared stack).
		cands, ok := candsByTr[aj.Transformation]
		if !ok {
			cands = siteCandidates(cats, sites, aj.Transformation)
			candsByTr[aj.Transformation] = cands
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf(
				"planner: job %q: transformation %q resolves at none of the target sites %v",
				aj.ID, aj.Transformation, opts.Sites)
		}
		choice := policy.Choose(PolicyJob{
			ID:             pj.ID,
			Transformation: pj.Transformation,
			ExecSeconds:    pj.ExecSeconds,
			InputBytes:     pj.InputBytes,
			OutputBytes:    pj.OutputBytes,
		}, cands)
		if choice < 0 || choice >= len(cands) {
			return nil, fmt.Errorf("planner: policy %q chose candidate %d of %d for job %q",
				policy.Name(), choice, len(cands), aj.ID)
		}
		chosen := cands[choice]
		pj.Site = chosen.Site.Name
		if !chosen.Entry.Installed {
			pj.NeedsInstall = true
			pj.InstallBytes = chosen.Entry.InstallBytes
		}

		gj := &gjobs[k]
		*gj = dax.Job{ID: aj.ID, Transformation: aj.Transformation, Uses: aj.Uses, Priority: aj.Priority}
		if err := plan.Graph.AddJob(gj); err != nil {
			return nil, err
		}
		plan.Info[aj.ID] = pj
	}
	plan.Graph.CopyEdges(work, to)

	if opts.AddStageIn {
		if err := addStageInMulti(plan, work, to, cats); err != nil {
			return nil, err
		}
	}

	if err := plan.finalize(); err != nil {
		return nil, err
	}
	return plan, nil
}

// addStageInMulti synthesizes one stage-in job per site that consumes
// external inputs, transferring every external input consumed at that site
// and feeding its consumers there. External inputs must have a registered
// replica. to maps work positions to plan positions.
func addStageInMulti(plan *Plan, work *dax.Workflow, to []int32, cats Catalogs) error {
	// Buckets are the plan's sites in name order, the order stage-in jobs
	// are added in.
	names := append([]string(nil), plan.Sites...)
	sort.Strings(names)
	bucket := make(map[string]int, len(names))
	for k, name := range names {
		bucket[name] = k
	}
	externals, consumers, err := externalInputs(work, cats, len(names), func(i int32) int {
		return bucket[plan.Info[work.JobAt(i).ID].Site]
	})
	if err != nil {
		return err
	}
	for k, site := range names {
		if len(externals[k]) == 0 {
			continue
		}
		entry, err := cats.Sites.Lookup(site)
		if err != nil {
			return err
		}
		cons := consumers[k]
		for c, i := range cons {
			cons[c] = to[i]
		}
		if err := addStageJob(plan, "stage_in_"+site, entry, externals[k], cons); err != nil {
			return err
		}
	}
	return nil
}
