package planner_test

import (
	"fmt"
	"testing"

	"pegflow/internal/planner"
	"pegflow/internal/workflow"
)

// planPaper builds the paper workflow with n chunks and plans it across
// both paper sites with the data-aware policy and stage-in — the planning
// half of a two-site scenario cell.
func planPaper(tb testing.TB, w workflow.Workload, n int) *planner.Plan {
	tb.Helper()
	cats, err := workflow.PaperCatalogs(w, 300, 600)
	if err != nil {
		tb.Fatal(err)
	}
	abstract, err := workflow.BuildDAX(workflow.BuilderConfig{N: n, Workload: w})
	if err != nil {
		tb.Fatal(err)
	}
	policy, err := planner.NewPolicy(planner.PolicyDataAware)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := planner.NewMulti(abstract, cats, planner.MultiOptions{
		Sites:      []string{"sandhills", "osg"},
		Policy:     policy,
		AddStageIn: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestAllocsPlan is the allocation regression gate for planning (run by
// CI as `go test -run 'TestAllocs'`): building the paper DAX and planning
// it across two sites at n = 10^4 must stay within a fixed per-job
// allocation budget. With edges held as position lists, copied by
// position and indexed straight from the graph's adjacency, the cost is a
// handful of allocations per job, nearly all of them the job's own
// strings, slices and profile map.
func TestAllocsPlan(t *testing.T) {
	const n = 10_000
	w := workflow.PaperWorkload(42)
	planPaper(t, w, n) // warm the workload's memoized cluster tables
	allocs := testing.AllocsPerRun(3, func() { planPaper(t, w, n) })
	// Budget: the measured 80,702 allocs/op (8.1/job; the string-keyed
	// graph took 410,802) plus ~10% headroom.
	const budget = 88_800
	if allocs > budget {
		t.Errorf("BuildDAX + NewMulti (n=%d) allocates %.0f/op, budget %d (%.1f/job)",
			n, allocs, budget, allocs/n)
	}
}

// BenchmarkPlan measures BuildDAX + NewMulti on the paper workload.
func BenchmarkPlan(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := workflow.PaperWorkload(42)
			planPaper(b, w, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planPaper(b, w, n)
			}
		})
	}
}
