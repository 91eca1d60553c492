// Dense-integer plan indexing: the engine's per-run bookkeeping (indegree
// counts, attempt counters, completion flags) used to live in string-keyed
// maps consulted on every dispatch. An Index interns the plan's job IDs to
// contiguous integers at plan time — topological order, adjacency and
// indegrees precomputed once — so the engine's hot loop runs on
// index-addressed slices with a single map lookup per executor event.
//
// The Index captures topology only (IDs, edges, degrees) and is immutable
// after construction, so a cloned plan shares its parent's Index while
// owning independent job attributes.

package planner

import (
	"fmt"

	"pegflow/internal/dax"
)

// Index is the dense-integer view of a plan's DAG. Positions follow the
// deterministic topological order of the graph (Kahn's algorithm with
// insertion-order tie-breaking, exactly dax.Workflow.TopoSort); children
// of each position appear in sorted-ID order, matching the iteration order
// the engine previously obtained from Graph.Children. An Index is
// immutable once built and safe for concurrent readers.
type Index struct {
	// Order holds the job IDs in topological order; Order[i] is the job at
	// position i.
	Order []string
	// Children lists, per position, the positions of the job's children in
	// sorted-ID order.
	Children [][]int32
	// Indegree is the number of parents per position.
	Indegree []int32
	// graph is the workflow the index was built from; rank maps its
	// positions (insertion order) to index positions. Workflows only grow
	// and never move a job, so both stay valid for the jobs indexed.
	graph *dax.Workflow
	rank  []int32
}

// Pos returns the index position of the job with the given ID.
func (x *Index) Pos(id string) (int32, bool) {
	i, ok := x.graph.Pos(id)
	if !ok || int(i) >= len(x.rank) {
		return 0, false
	}
	return x.rank[i], true
}

// Indexed returns the plan's dense index, building it on first use and
// rebuilding it if the graph was replaced or mutated since (detected by
// the graph's mutation counter). It returns an error when the graph is
// cyclic. Plans produced by New, NewMulti and Cluster are indexed at
// construction; hand-assembled plans are indexed lazily here and must not
// be shared across goroutines before the first call.
func (p *Plan) Indexed() (*Index, error) {
	if !p.indexFresh() {
		if err := p.finalize(); err != nil {
			return nil, err
		}
	}
	return p.index, nil
}

// indexFresh reports whether the index reflects the current graph.
func (p *Plan) indexFresh() bool {
	return p.index != nil && p.indexedGraph == p.Graph && p.indexedVersion == p.Graph.Version()
}

// JobAt returns the planned job at topological position i of the index.
func (p *Plan) JobAt(i int32) *Job { return p.jobsByPos[i] }

// finalize validates the executable graph (cycle check via the
// topological sort) and builds the dense index straight from the graph's
// adjacency, plus the position-aligned job table.
func (p *Plan) finalize() error {
	g := p.Graph
	order, err := g.TopoPositions()
	if err != nil {
		return fmt.Errorf("planner: executable workflow broken: %w", err)
	}
	n := len(order)
	idx := &Index{
		Order:    make([]string, n),
		Children: make([][]int32, n),
		Indegree: make([]int32, n),
		graph:    g,
		rank:     make([]int32, n),
	}
	for k, i := range order {
		idx.rank[i] = int32(k)
	}
	flat := make([]int32, g.Edges())
	for k, i := range order {
		idx.Order[k] = g.JobAt(i).ID
		idx.Indegree[k] = int32(len(g.ParentsAt(i)))
		kids := g.ChildrenAt(i)
		if len(kids) == 0 {
			continue
		}
		cs := flat[:len(kids):len(kids)]
		flat = flat[len(kids):]
		for m, c := range kids {
			cs[m] = idx.rank[c]
		}
		idx.Children[k] = cs
	}
	p.index, p.indexedGraph, p.indexedVersion = idx, g, g.Version()
	return p.reindexJobs()
}

// reindexJobs (re)builds the position-aligned job table from Info.
func (p *Plan) reindexJobs() error {
	jobs := make([]*Job, len(p.index.Order))
	for i, id := range p.index.Order {
		j := p.Info[id]
		if j == nil {
			return fmt.Errorf("planner: job %q has no planning info", id)
		}
		jobs[i] = j
	}
	p.jobsByPos = jobs
	return nil
}

// Clone returns a deep copy of the plan: the graph, the planned jobs and
// every slice they carry are duplicated, so mutating one plan (including
// its runtime estimates) never changes the other. The immutable Index is
// shared, which makes cloning O(jobs + edges) with no re-sorting — the
// cheap per-use step of the plan cache.
func (p *Plan) Clone() *Plan {
	out := &Plan{
		Graph:     p.Graph.Clone(),
		Info:      make(map[string]*Job, len(p.Info)),
		Site:      p.Site,
		Sites:     append([]string(nil), p.Sites...),
		SiteEntry: p.SiteEntry,
	}
	for id, j := range p.Info {
		out.Info[id] = j.clone()
	}
	if p.indexFresh() {
		// The cloned graph carries the original's mutation count, so the
		// shared index is fresh for it too.
		out.index, out.indexedGraph, out.indexedVersion = p.index, out.Graph, out.Graph.Version()
		if err := out.reindexJobs(); err != nil {
			// Info and index came from a consistent plan; a mismatch here
			// is a programming error, not an input error.
			panic(err)
		}
	}
	return out
}

// clone deep-copies a planned job, including its Args, Tasks and Members.
func (j *Job) clone() *Job {
	cp := *j
	cp.Args = append([]string(nil), j.Args...)
	cp.Tasks = append([]string(nil), j.Tasks...)
	cp.Members = append([]Member(nil), j.Members...)
	return &cp
}
