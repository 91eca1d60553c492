package dax

import (
	"fmt"
	"maps"
	"slices"
)

// Link describes how a job uses a file.
type Link int

const (
	// LinkInput marks a file the job consumes.
	LinkInput Link = iota
	// LinkOutput marks a file the job produces.
	LinkOutput
)

// String returns the DAX spelling of the link direction.
func (l Link) String() string {
	if l == LinkInput {
		return "input"
	}
	return "output"
}

// Use records one file usage by a job.
type Use struct {
	// LFN is the logical file name.
	LFN string
	// Link is the usage direction.
	Link Link
	// Size is the file size in bytes, when known (0 = unknown).
	Size int64
	// Transfer marks outputs that should be staged out of the site.
	Transfer bool
}

// Job is one abstract task: a logical transformation applied to logical
// files.
type Job struct {
	// ID uniquely identifies the job within the workflow.
	ID string
	// Transformation is the logical executable name (e.g. "run_cap3").
	Transformation string
	// Namespace and Version qualify the transformation.
	Namespace, Version string
	// Args are the command-line arguments.
	Args []string
	// Uses lists the job's file usages.
	Uses []Use
	// Profiles carry scheduler hints, keyed as "namespace::key"
	// (e.g. "pegasus::runtime" with an estimated runtime in seconds).
	Profiles map[string]string
	// Priority orders ready jobs in the meta-scheduler; higher runs first.
	Priority int
}

// AddInput appends an input usage.
func (j *Job) AddInput(lfn string, size int64) *Job {
	j.Uses = append(j.Uses, Use{LFN: lfn, Link: LinkInput, Size: size})
	return j
}

// AddOutput appends an output usage.
func (j *Job) AddOutput(lfn string, size int64) *Job {
	j.Uses = append(j.Uses, Use{LFN: lfn, Link: LinkOutput, Size: size})
	return j
}

// SetProfile records a profile entry under namespace::key.
func (j *Job) SetProfile(namespace, key, value string) *Job {
	if j.Profiles == nil {
		j.Profiles = make(map[string]string)
	}
	j.Profiles[namespace+"::"+key] = value
	return j
}

// Profile returns the profile value for namespace::key, or "".
func (j *Job) Profile(namespace, key string) string {
	return j.Profiles[namespace+"::"+key]
}

// Clone returns a deep copy of the job: the Uses, Args and Profiles of the
// copy are independent of the original's.
func (j *Job) Clone() *Job { return cloneJobs([]*Job{j})[0] }

// Inputs returns the logical names of the job's inputs, in declaration order.
func (j *Job) Inputs() []string {
	var out []string
	for _, u := range j.Uses {
		if u.Link == LinkInput {
			out = append(out, u.LFN)
		}
	}
	return out
}

// Outputs returns the logical names of the job's outputs, in declaration order.
func (j *Job) Outputs() []string {
	var out []string
	for _, u := range j.Uses {
		if u.Link == LinkOutput {
			out = append(out, u.LFN)
		}
	}
	return out
}

// Workflow is an abstract DAG of jobs (a Pegasus "ADAG").
//
// The graph is index-native: a job's position is its insertion index,
// and edges are stored per position as []int32 lists of parent and child
// positions. Job IDs enter through one ID → position map, consulted only
// where a string crosses the API. Adding edges only appends; the next read
// normalises every list once — sorted by ID, duplicates dropped — which
// costs one comparison per entry for lists that arrive in order. Reads of
// a normalised workflow never write, so a workflow read once after its
// last mutation is safe for concurrent readers.
type Workflow struct {
	// Name labels the workflow.
	Name string
	// jobs holds the jobs in insertion order; jobs[i] is at position i.
	jobs []*Job
	// pos maps a job ID to its position.
	pos map[string]int32
	// parents and children list, per position, the positions of the job's
	// parents and children; normalised lists are sorted by ID and
	// duplicate-free.
	parents, children [][]int32
	// dirty marks edges added since the last normalisation.
	dirty bool
	// spare is a block new lists take their first two slots from, so a
	// job with a parent or two costs no allocation of its own.
	spare []int32
	// edges is the edge count as of the last normalisation.
	edges int
	// version counts mutations (jobs and edges added).
	version uint64
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, pos: make(map[string]int32)}
}

// NewJob creates a job with the given ID and transformation, adds it to the
// workflow and returns it. It panics on duplicate IDs (always a builder
// bug); use AddJob for error-returning insertion.
func (w *Workflow) NewJob(id, transformation string) *Job {
	j := &Job{ID: id, Transformation: transformation}
	if err := w.AddJob(j); err != nil {
		panic(err)
	}
	return j
}

// AddJob inserts a job at the next position, rejecting empty and duplicate
// IDs.
func (w *Workflow) AddJob(j *Job) error {
	if j.ID == "" {
		return fmt.Errorf("dax: job with empty ID")
	}
	if _, dup := w.pos[j.ID]; dup {
		return fmt.Errorf("dax: duplicate job ID %q", j.ID)
	}
	w.pos[j.ID] = int32(len(w.jobs))
	w.jobs = append(w.jobs, j)
	w.parents = append(w.parents, nil)
	w.children = append(w.children, nil)
	w.version++
	return nil
}

// Grow reserves room for n more jobs, so a builder that knows its size
// up front adds them without rehashing or regrowing.
func (w *Workflow) Grow(n int) {
	if n <= 0 {
		return
	}
	pos := make(map[string]int32, len(w.jobs)+n)
	maps.Copy(pos, w.pos)
	w.pos = pos
	w.jobs = slices.Grow(w.jobs, n)
	w.parents = slices.Grow(w.parents, n)
	w.children = slices.Grow(w.children, n)
}

// Job returns the job with the given ID, or nil.
func (w *Workflow) Job(id string) *Job {
	if i, ok := w.pos[id]; ok {
		return w.jobs[i]
	}
	return nil
}

// Pos returns the position of the job with the given ID.
func (w *Workflow) Pos(id string) (int32, bool) {
	i, ok := w.pos[id]
	return i, ok
}

// JobAt returns the job at position i.
func (w *Workflow) JobAt(i int32) *Job { return w.jobs[i] }

// Len returns the number of jobs.
func (w *Workflow) Len() int { return len(w.jobs) }

// Version counts the workflow's structural mutations (jobs and edges
// added). Derived views record it to detect staleness.
func (w *Workflow) Version() uint64 { return w.version }

// Jobs returns all jobs in insertion order.
func (w *Workflow) Jobs() []*Job { return slices.Clone(w.jobs) }

// Clone returns a deep copy of the workflow: jobs, edges and insertion
// order are all duplicated, so mutating either workflow never changes the
// other. The normalised adjacency is copied as is, into one flat array per
// direction.
func (w *Workflow) Clone() *Workflow {
	w.normalise()
	out := &Workflow{Name: w.Name, pos: maps.Clone(w.pos), edges: w.edges, version: w.version}
	out.jobs = cloneJobs(w.jobs)
	out.parents = flatCopy(w.parents, w.edges)
	out.children = flatCopy(w.children, w.edges)
	return out
}

// cloneJobs deep-copies jobs, drawing the Job values and their Args and
// Uses from one backing array each. Empty Args and Uses copy as nil.
func cloneJobs(src []*Job) []*Job {
	nargs, nuses := 0, 0
	for _, j := range src {
		nargs += len(j.Args)
		nuses += len(j.Uses)
	}
	vals := make([]Job, len(src))
	args := make([]string, 0, nargs)
	uses := make([]Use, 0, nuses)
	out := make([]*Job, len(src))
	for i, j := range src {
		cp := &vals[i]
		*cp = *j
		cp.Args, args = carve(args, j.Args)
		cp.Uses, uses = carve(uses, j.Uses)
		if j.Profiles != nil {
			cp.Profiles = maps.Clone(j.Profiles)
		}
		out[i] = cp
	}
	return out
}

// carve appends src to buf, which callers size for everything they
// carve, and returns the appended part — capped, so appending to it never
// reaches into buf — and the extended buf. An empty src yields nil.
func carve[T any](buf, src []T) ([]T, []T) {
	if len(src) == 0 {
		return nil, buf
	}
	n := len(buf)
	buf = append(buf, src...)
	return buf[n:len(buf):len(buf)], buf
}

// flatCopy copies per-position lists holding total entries into one
// backing array; each copied list is capped, so appending to one never
// overwrites its neighbour.
func flatCopy(lists [][]int32, total int) [][]int32 {
	buf := make([]int32, 0, total)
	out := make([][]int32, len(lists))
	for i, l := range lists {
		out[i], buf = carve(buf, l)
	}
	return out
}

// AddDependency records that child may only start after parent finishes.
// Both jobs must already exist. Self-dependencies are rejected; duplicate
// edges are idempotent.
func (w *Workflow) AddDependency(parent, child string) error {
	if parent == child {
		return fmt.Errorf("dax: self-dependency on %q", parent)
	}
	p, ok := w.pos[parent]
	if !ok {
		return fmt.Errorf("dax: dependency references unknown parent %q", parent)
	}
	c, ok := w.pos[child]
	if !ok {
		return fmt.Errorf("dax: dependency references unknown child %q", child)
	}
	w.link(p, c)
	return nil
}

// Link records the dependency edge parent → child between two existing
// positions, like AddDependency.
func (w *Workflow) Link(parent, child int32) error {
	if parent == child {
		return fmt.Errorf("dax: self-dependency on %q", w.jobs[parent].ID)
	}
	w.link(parent, child)
	return nil
}

// link appends the edge p → c to both lists.
func (w *Workflow) link(p, c int32) {
	w.children[p] = w.appendPos(w.children[p], c)
	w.parents[c] = w.appendPos(w.parents[c], p)
	w.dirty = true
	w.version++
}

// appendPos appends x to an adjacency list, starting an empty list in the
// spare block.
func (w *Workflow) appendPos(list []int32, x int32) []int32 {
	if list == nil {
		if len(w.spare) < 2 {
			w.spare = make([]int32, 1024)
		}
		list, w.spare = w.spare[:0:2], w.spare[2:]
	}
	return append(list, x)
}

// normalise sorts every list by ID, drops duplicate edges and recounts
// them, if edges were added since the last call; otherwise it writes
// nothing.
func (w *Workflow) normalise() {
	if !w.dirty {
		return
	}
	w.edges = 0
	for i := range w.jobs {
		w.parents[i] = w.sortByID(w.parents[i])
		w.children[i] = w.sortByID(w.children[i])
		w.edges += len(w.parents[i])
	}
	w.dirty = false
}

// sortByID sorts positions by job ID and drops duplicates. Lists arrive
// as runs already in ID order — a fan-out grown in numeric order leaves
// sorted-ID order only where its IDs gain a digit — so it merges the runs
// bottom-up: O(len · log runs) comparisons, a single pass for one run.
func (w *Workflow) sortByID(list []int32) []int32 {
	if len(list) < 2 {
		return list
	}
	less := func(a, b int32) bool { return w.jobs[a].ID < w.jobs[b].ID }
	if len(list) <= 16 {
		// Short lists — most jobs have a parent or two — sort in place.
		for i := 1; i < len(list); i++ {
			for j := i; j > 0 && less(list[j], list[j-1]); j-- {
				list[j], list[j-1] = list[j-1], list[j]
			}
		}
		return slices.Compact(list)
	}
	bounds := []int{0}
	for i := 1; i < len(list); i++ {
		if less(list[i], list[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(list))
	if len(bounds) == 2 {
		return slices.Compact(list)
	}
	src, dst := list, make([]int32, len(list))
	for len(bounds) > 2 {
		merged := []int{0}
		for r := 0; r+1 < len(bounds); r += 2 {
			lo, mid := bounds[r], bounds[r+1]
			hi := mid // an odd run out is copied as is
			if r+2 < len(bounds) {
				hi = bounds[r+2]
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(src[j], src[i]) {
					dst[k], j = src[j], j+1
				} else {
					dst[k], i = src[i], i+1
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
			merged = append(merged, hi)
		}
		bounds = merged
		src, dst = dst, src
	}
	return slices.Compact(src)
}

// ParentsAt returns the positions of the parents of position i, in
// sorted-ID order. The slice is the workflow's own: do not modify it.
func (w *Workflow) ParentsAt(i int32) []int32 {
	w.normalise()
	return w.parents[i]
}

// ChildrenAt returns the positions of the children of position i, in
// sorted-ID order. The slice is the workflow's own: do not modify it.
func (w *Workflow) ChildrenAt(i int32) []int32 {
	w.normalise()
	return w.children[i]
}

// Parents returns the sorted parent IDs of a job.
func (w *Workflow) Parents(id string) []string {
	i, ok := w.pos[id]
	if !ok {
		return nil
	}
	return w.ids(w.ParentsAt(i))
}

// Children returns the sorted child IDs of a job.
func (w *Workflow) Children(id string) []string {
	i, ok := w.pos[id]
	if !ok {
		return nil
	}
	return w.ids(w.ChildrenAt(i))
}

// ids maps positions to job IDs (nil for none).
func (w *Workflow) ids(list []int32) []string {
	if len(list) == 0 {
		return nil
	}
	out := make([]string, len(list))
	for k, i := range list {
		out[k] = w.jobs[i].ID
	}
	return out
}

// CopyEdges adds every edge of src to w, mapping src position i to w
// position to[i]; nil means the identity, and to[i] < 0 drops job i with
// its edges. Each list is copied in src's order, so a map that keeps IDs —
// as planning's and RescueDAX's do — leaves nothing to sort.
func (w *Workflow) CopyEdges(src *Workflow, to []int32) {
	at := func(i int32) int32 {
		if to == nil {
			return i
		}
		return to[i]
	}
	src.normalise()
	for i := range int32(len(src.jobs)) {
		if t := at(i); t >= 0 {
			w.parents[t] = w.appendMapped(w.parents[t], src.parents[i], at)
			w.children[t] = w.appendMapped(w.children[t], src.children[i], at)
		}
	}
	w.dirty = true
	w.version++
}

// appendMapped appends the kept entries of src, mapped through at, to
// list.
func (w *Workflow) appendMapped(list, src []int32, at func(int32) int32) []int32 {
	for _, i := range src {
		if t := at(i); t >= 0 {
			list = w.appendPos(list, t)
		}
	}
	return list
}

// Roots returns jobs with no parents, in insertion order.
func (w *Workflow) Roots() []string {
	var out []string
	for i, j := range w.jobs {
		if len(w.parents[i]) == 0 {
			out = append(out, j.ID)
		}
	}
	return out
}

// Leaves returns jobs with no children, in insertion order.
func (w *Workflow) Leaves() []string {
	var out []string
	for i, j := range w.jobs {
		if len(w.children[i]) == 0 {
			out = append(out, j.ID)
		}
	}
	return out
}

// Edges returns the number of dependency edges.
func (w *Workflow) Edges() int {
	w.normalise()
	return w.edges
}

// InferDependencies adds edges from every producer of a logical file to
// every consumer of that file. This is how Pegasus derives structure from
// data flow when explicit edges are omitted.
func (w *Workflow) InferDependencies() error {
	producer := make(map[string][]int32)
	for i, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link == LinkOutput {
				producer[u.LFN] = append(producer[u.LFN], int32(i))
			}
		}
	}
	for i, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link != LinkInput {
				continue
			}
			for _, p := range producer[u.LFN] {
				if p == int32(i) {
					return fmt.Errorf("dax: job %q both produces and consumes %q", j.ID, u.LFN)
				}
				w.link(p, int32(i))
			}
		}
	}
	return nil
}

// TopoPositions returns the job positions in a dependency-respecting order
// (Kahn's algorithm; ties broken by insertion order, children released in
// sorted-ID order, so the result is deterministic). It returns an error if
// the graph has a cycle.
func (w *Workflow) TopoPositions() ([]int32, error) {
	w.normalise()
	n := len(w.jobs)
	indeg := make([]int32, n)
	out := make([]int32, 0, n)
	for i := range w.jobs {
		indeg[i] = int32(len(w.parents[i]))
		if indeg[i] == 0 {
			out = append(out, int32(i))
		}
	}
	// out doubles as the FIFO ready queue: jobs leave it in the order they
	// entered.
	for head := 0; head < len(out); head++ {
		for _, c := range w.children[out[head]] {
			indeg[c]--
			if indeg[c] == 0 {
				out = append(out, c)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("dax: workflow %q contains a cycle (%d of %d jobs orderable)",
			w.Name, len(out), n)
	}
	return out, nil
}

// TopoSort returns the job IDs in the order of TopoPositions.
func (w *Workflow) TopoSort() ([]string, error) {
	order, err := w.TopoPositions()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(order))
	for k, i := range order {
		out[k] = w.jobs[i].ID
	}
	return out, nil
}

// Validate checks structural invariants: non-empty job set, acyclicity, and
// that no logical file has more than one producer.
func (w *Workflow) Validate() error {
	if len(w.jobs) == 0 {
		return fmt.Errorf("dax: workflow %q has no jobs", w.Name)
	}
	if _, err := w.TopoPositions(); err != nil {
		return err
	}
	outputs := 0
	for _, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link == LinkOutput {
				outputs++
			}
		}
	}
	producer := make(map[string]int32, outputs)
	for i, j := range w.jobs {
		for _, u := range j.Uses {
			if u.Link != LinkOutput {
				continue
			}
			if prev, dup := producer[u.LFN]; dup {
				return fmt.Errorf("dax: file %q produced by both %q and %q", u.LFN, w.jobs[prev].ID, j.ID)
			}
			producer[u.LFN] = int32(i)
		}
	}
	return nil
}

// depths returns each position's depth — 0 for roots, else one more than
// its deepest parent — and the largest depth.
func (w *Workflow) depths() ([]int32, int32, error) {
	order, err := w.TopoPositions()
	if err != nil {
		return nil, 0, err
	}
	depth := make([]int32, len(order))
	var maxd int32
	for _, i := range order {
		var d int32
		for _, p := range w.parents[i] {
			d = max(d, depth[p]+1)
		}
		depth[i] = d
		maxd = max(maxd, d)
	}
	return depth, maxd, nil
}

// CriticalPathLength returns the length (in job count) of the longest
// chain in the DAG — a lower bound on sequential depth.
func (w *Workflow) CriticalPathLength() (int, error) {
	_, maxd, err := w.depths()
	if err != nil || len(w.jobs) == 0 {
		return 0, err
	}
	return int(maxd) + 1, nil
}

// LevelPositions groups job positions by depth: level 0 holds roots, level
// k holds jobs whose deepest parent is at level k-1; each level lists its
// jobs in insertion order. Used by horizontal task clustering.
func (w *Workflow) LevelPositions() ([][]int32, error) {
	depth, maxd, err := w.depths()
	if err != nil {
		return nil, err
	}
	levels := make([][]int32, maxd+1)
	for i, d := range depth {
		levels[d] = append(levels[d], int32(i))
	}
	return levels, nil
}

// Levels returns the job IDs of LevelPositions.
func (w *Workflow) Levels() ([][]string, error) {
	levels, err := w.LevelPositions()
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(levels))
	for d, l := range levels {
		out[d] = w.ids(l)
	}
	return out, nil
}
