package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// Every workload's inputs are scenario documents generated from the
// workload seed; the program sees only their bytes. All sites are presets
// (with slot and eviction-rate overrides only), which the traced run's
// recomposition of ensemble cells relies on.

// doc is one generated scenario document.
type doc struct {
	name string
	body []byte
}

// simFields are the output fields every generated document requests; the
// traced run's fidelity check compares them cell by cell.
const simFields = `["makespan_s", "jobs", "attempts", "retries", "evictions", "failovers", "success"]`

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// seedList draws k distinct document seeds.
func seedList(r *rand.Rand, k int) string {
	seen := map[uint32]bool{}
	var parts []string
	for len(parts) < k {
		s := r.Uint32()
		if !seen[s] {
			seen[s] = true
			parts = append(parts, fmt.Sprint(s))
		}
	}
	return strings.Join(parts, ", ")
}

// fig4Doc is the paper's Fig. 4 grid: one workflow at n = 10/100/300/500
// on the Sandhills allocation and on the OSG pool, one cell per seed.
func fig4Doc(name, seeds string) doc {
	return doc{name, []byte(fmt.Sprintf(`{
  "version": 1,
  "name": %q,
  "sites": [{"preset": "sandhills", "slots": 300}, {"preset": "osg", "slots": 600}],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {"preset": "paper", "n": [10, 100, 300, 500], "seeds": [%s]},
  "outputs": {"fields": %s, "percentiles": [50, 90, 99]}
}`, name, seeds, simFields))}
}

// failoverDoc is the failover-stress matrix: a small Sandhills allocation
// beside a stormy OSG, clustering x failover at two decompositions.
func failoverDoc(name, seeds string) doc {
	return doc{name, []byte(fmt.Sprintf(`{
  "version": 1,
  "name": %q,
  "sites": [
    {"preset": "sandhills", "slots": 100},
    {"name": "osg-stormy", "preset": "osg", "slots": 300, "eviction_rate": 0.0001}
  ],
  "workload": {
    "params": {"num_clusters": 4000, "max_cluster_size": 300, "size_exponent": 0.5, "mean_read_len": 1200},
    "n": [64, 128],
    "seeds": [%s]
  },
  "policies": {"site": ["data-aware"], "cluster": [{}, {"target_seconds": 1800}], "failover": [false, true]},
  "retries": 8,
  "outputs": {"fields": %s, "percentiles": [50, 99]}
}`, name, seeds, simFields))}
}

// ensembleDoc is a six-workflow ensemble on the two preset sites across
// the three site policies x failover.
func ensembleDoc(name, seeds string) doc {
	return doc{name, []byte(fmt.Sprintf(`{
  "version": 1,
  "name": %q,
  "sites": [{"preset": "sandhills", "slots": 48}, {"preset": "osg", "slots": 96}],
  "workload": {
    "params": {"num_clusters": 2000, "max_cluster_size": 200, "size_exponent": 0.5, "mean_read_len": 1200},
    "n": [24],
    "seeds": [%s]
  },
  "policies": {"site": ["round-robin", "data-aware", "runtime-aware"], "failover": [false, true]},
  "ensemble": {"workflows": 6, "max_inflight": 64},
  "outputs": {"fields": %s, "percentiles": [50, 99]}
}`, name, seeds, simFields))}
}

// sweepDocs is a researcher's batch: Fig. 4 grids over many seeds, the
// failover-stress matrix over several, and ensembles of six.
func sweepDocs(seed uint64) []doc {
	r := newRand(seed, 1)
	var docs []doc
	for i := 0; i < 6; i++ {
		docs = append(docs, fig4Doc(fmt.Sprintf("fig4-%d", i), seedList(r, 2)))
	}
	for i := 0; i < 3; i++ {
		docs = append(docs, failoverDoc(fmt.Sprintf("failover-%d", i), seedList(r, 1)))
	}
	for i := 0; i < 2; i++ {
		docs = append(docs, ensembleDoc(fmt.Sprintf("ensemble-%d", i), seedList(r, 1)))
	}
	return docs
}

// bigrunN is the chunk count of the bigrun cell.
const bigrunN = 100000

// bigDoc is one cell (aggregated, or exact for the reference) on the
// two-site Sandhills+OSG world with failover and retries enough to finish.
func bigDoc(seed uint64, n int, aggregate bool) doc {
	return doc{"bigrun", []byte(fmt.Sprintf(`{
  "version": 1,
  "name": "bigrun",
  "sites": [{"preset": "sandhills", "slots": 300}, {"preset": "osg", "slots": 600}],
  "workload": {"preset": "paper", "n": [%d], "seeds": [%d]},
  "policies": {"site": ["data-aware"], "failover": [true]},
  "retries": 20,
  "outputs": {"aggregate": %t, "fields": %s, "percentiles": [50, 99]}
}`, n, uint32(seed), aggregate, simFields))}
}

// serveDoc is a small single-site document: a shape (workload params) at
// one seed on two preset sites, four cells on the plan-cached path.
func serveDoc(name string, clusters int, seed uint32) doc {
	return doc{name, []byte(fmt.Sprintf(`{
  "version": 1,
  "name": %q,
  "sites": [{"preset": "sandhills", "slots": 32}, {"preset": "osg", "slots": 64}],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {
    "params": {"num_clusters": %d, "max_cluster_size": 100, "size_exponent": 0.5, "mean_read_len": 1000},
    "n": [16, 32],
    "seeds": [%d]
  },
  "outputs": {"fields": %s, "percentiles": [50, 99]}
}`, name, clusters, seed, simFields))}
}
