// The keyed plan cache: every Monte Carlo / cluster / ensemble sweep cell
// used to re-plan an identical workflow from scratch — abstract DAX
// construction, catalog resolution, dependency wiring and topological
// indexing — even though the only seed-dependent part of a plan is the set
// of run_cap3 chunk runtimes (the seed drives nothing but the
// cluster→chunk assignment permutation). The cache builds one immutable
// master plan per shape key (site, n, slot counts, workload fingerprint,
// cost model) and serves each request a cheap deep Plan.Clone with the
// requesting experiment's chunk runtimes patched in, reproducing the
// uncached plan byte-for-byte: the patched values round-trip through the
// same "%.3f" formatting the DAX runtime profiles use.

package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// cacheShards spreads the plan and member-DAX caches across independently
// locked shards, selected by a fingerprint hash of the key, so concurrent
// mixed-document traffic (the serve tier's steady state) does not contend
// on one map's lock.
const cacheShards = 16

// shardedMap is a fixed-size array of mutex-guarded maps; callers route
// each key to a shard with a hash they compute from the key's identity
// fields. A plain mutex+map beats sync.Map here: LoadOrStore is the only
// hot operation, each call is one short critical section with no
// per-entry wrapper allocation, and the guarded state is visible to the
// guardfield analyzer. Heavy lifting (plan construction) happens outside
// the lock via the cached entry's sync.Once.
type shardedMap struct {
	shards [cacheShards]mapShard
}

// mapShard is one independently locked slice of a shardedMap.
type mapShard struct {
	mu sync.Mutex
	//pegflow:guarded mu
	m map[any]any
}

// LoadOrStore returns the value stored under key, or stores and returns
// val if the key was absent. The bool reports whether the value was
// already present.
func (m *shardedMap) LoadOrStore(hash uint64, key, val any) (any, bool) {
	sh := &m.shards[hash%cacheShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[key]; ok {
		return v, true
	}
	if sh.m == nil {
		sh.m = make(map[any]any)
	}
	sh.m[key] = val
	return val, false
}

// Len counts entries across all shards (cache introspection; the
// warm-cache tests assert entry counts with it).
func (m *shardedMap) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Clear drops every entry from every shard.
func (m *shardedMap) Clear() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}

// hashFields is FNV-1a over a mix of strings and integers — the shard
// selector for cache keys.
func hashFields(strs []string, ints []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, s := range strs {
		io.WriteString(h, s)
		h.Write([]byte{0}) // separator: ("ab","c") != ("a","bc")
	}
	for _, v := range ints {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// planKey is the shape fingerprint of a cacheable plan. It deliberately
// excludes the workload seed: seeds only change chunk runtimes, which are
// patched per retrieval.
type planKey struct {
	site                     string
	n                        int
	serial                   bool
	sandhillsSlots, osgSlots int
	params                   workflow.WorkloadParams
	name                     string
	totalTranscripts         int
	transcriptBytes          int64
	alignmentBytes           int64
	cost                     workflow.CostModel
}

// cachedPlan is one cache entry; the master plan is built once under the
// sync.Once and never mutated afterwards.
type cachedPlan struct {
	once sync.Once
	plan *planner.Plan
	// chunkIDs lists the run_cap3 job IDs in chunk order, so retrieval
	// patches by index without re-deriving the ID strings.
	chunkIDs []string
	err      error
}

// hash picks the key's cache shard from its cheap identity fields; the
// full struct key still guarantees exactness inside the shard.
func (k planKey) hash() uint64 {
	serial := uint64(0)
	if k.serial {
		serial = 1
	}
	return hashFields(
		[]string{k.site, k.name},
		[]uint64{uint64(k.n), serial, uint64(k.sandhillsSlots), uint64(k.osgSlots)},
	)
}

var planCache shardedMap // planKey -> *cachedPlan

// Cache telemetry: masters built vs. cache retrievals served. The
// counters are monotone for the process lifetime (ResetPlanCache drops
// entries, not counters), so callers — the serve health endpoint and the
// warm-cache tests — difference them across operations: a request that
// increases retrievals without increasing builds ran entirely warm.
var (
	planBuilds, planRetrievals atomic.Uint64
	daxBuilds, daxRetrievals   atomic.Uint64
)

// CacheStats is a snapshot of the process-wide plan- and member-DAX-cache
// counters.
type CacheStats struct {
	// PlanBuilds counts master plans constructed (cache misses).
	PlanBuilds uint64 `json:"plan_builds"`
	// PlanRetrievals counts plans served from the cache (each one a
	// Clone + runtime patch).
	PlanRetrievals uint64 `json:"plan_retrievals"`
	// MemberDAXBuilds and MemberDAXRetrievals are the same pair for the
	// ensemble member-DAX cache.
	MemberDAXBuilds     uint64 `json:"member_dax_builds"`
	MemberDAXRetrievals uint64 `json:"member_dax_retrievals"`
}

// PlanCacheStats returns the current cache counters.
func PlanCacheStats() CacheStats {
	return CacheStats{
		PlanBuilds:          planBuilds.Load(),
		PlanRetrievals:      planRetrievals.Load(),
		MemberDAXBuilds:     daxBuilds.Load(),
		MemberDAXRetrievals: daxRetrievals.Load(),
	}
}

// ResetPlanCache drops every cached plan and member DAX. Tests and
// benchmarks use it for a cold cache; long-lived processes that sweep
// many ensemble seeds should call it between sweeps — the member-DAX
// cache's key includes the seed, so it is the one cache whose entry
// count grows with distinct seeds.
func ResetPlanCache() {
	planCache.Clear()
	memberDAXCache.Clear()
}

// effectiveCost mirrors BuildDAX's zero-value defaulting so the cache key
// and the patch step use the cost model the builder actually applied.
func effectiveCost(c workflow.CostModel) workflow.CostModel {
	if c == (workflow.CostModel{}) {
		return workflow.DefaultCostModel()
	}
	return c
}

// cacheable reports whether the workload carries the synthesis fingerprint
// the cache keys on. Hand-built workloads (zero Params) are planned
// directly every time.
func cacheable(w workflow.Workload) bool {
	return w.Params != (workflow.WorkloadParams{}) && len(w.Clusters) > 0
}

// cachedWorkflowPlan returns an executable plan for the workload on the
// named site with n chunks (or the serial baseline when serial is set),
// cloned from the cached master when the workload is cacheable and built
// directly otherwise. The returned plan is private to the caller and safe
// to mutate or cluster further.
func (e *Experiment) cachedWorkflowPlan(site string, n int, w workflow.Workload, serial bool) (*planner.Plan, error) {
	if !cacheable(w) {
		return e.buildPlan(site, n, w, serial)
	}
	key := planKey{
		site:             site,
		n:                n,
		serial:           serial,
		sandhillsSlots:   e.SandhillsSlots,
		osgSlots:         e.OSGSlots,
		params:           w.Params,
		name:             w.Name,
		totalTranscripts: w.TotalTranscripts,
		transcriptBytes:  w.TranscriptBytes,
		alignmentBytes:   w.AlignmentBytes,
		cost:             e.Cost,
	}
	v, _ := planCache.LoadOrStore(key.hash(), key, &cachedPlan{})
	entry := v.(*cachedPlan)
	entry.once.Do(func() {
		planBuilds.Add(1)
		entry.plan, entry.err = e.buildPlan(site, n, w, serial)
		if entry.err != nil || serial {
			return
		}
		entry.chunkIDs = make([]string, n)
		for i := range entry.chunkIDs {
			entry.chunkIDs[i] = workflow.ChunkJobID(i)
		}
	})
	if entry.err != nil {
		return nil, entry.err
	}
	planRetrievals.Add(1)
	plan := entry.plan.Clone()
	if serial {
		// The serial baseline's single runtime sums every cluster — fully
		// seed-independent, nothing to patch.
		return plan, nil
	}
	// Patch the seed-dependent chunk runtimes, reproducing the DAX
	// builder's profile round-trip (formatted to 3 decimals, then parsed)
	// so the clone is byte-identical to an uncached plan for this seed.
	chunks, err := effectiveCost(e.Cost).ChunkSeconds(w, n)
	if err != nil {
		return nil, err
	}
	for i, id := range entry.chunkIDs {
		j := plan.Info[id]
		if j == nil {
			return nil, fmt.Errorf("core: plan cache: job %q missing from cached plan", id)
		}
		formatted := strconv.FormatFloat(chunks[i], 'f', 3, 64)
		v, err := strconv.ParseFloat(formatted, 64)
		if err != nil {
			return nil, fmt.Errorf("core: plan cache: chunk %d runtime: %w", i, err)
		}
		j.ExecSeconds = v
		// Keep the graph job's runtime profile in sync too, so consumers
		// of the exported Graph (DAX writers, re-planning) never see the
		// master-building seed's estimate.
		if gj := plan.Graph.Job(id); gj != nil {
			gj.SetProfile("pegasus", "runtime", formatted)
		}
	}
	return plan, nil
}

// buildPlan is the uncached planning path: abstract DAX, paper catalogs,
// single-site planning — exactly what every sweep cell used to run.
func (e *Experiment) buildPlan(site string, n int, w workflow.Workload, serial bool) (*planner.Plan, error) {
	cats, err := workflow.PaperCatalogs(w, e.SandhillsSlots, e.OSGSlots)
	if err != nil {
		return nil, err
	}
	var abstract *dax.Workflow
	if serial {
		abstract, err = workflow.BuildSerialDAX(w, e.Cost)
	} else {
		abstract, err = workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w, Cost: e.Cost})
	}
	if err != nil {
		return nil, err
	}
	return planner.New(abstract, cats, planner.Options{Site: site})
}
