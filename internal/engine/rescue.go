package engine

import (
	"fmt"
	"io"

	"pegflow/internal/dax"
	"pegflow/internal/planner"
)

// RescueDAX builds the rescue workflow for an incomplete run: the
// sub-DAG of the plan induced by the unfinished jobs, with dependencies on
// completed jobs dropped (their outputs already exist) — what Pegasus
// resubmits after a failure (paper §III: "Pegasus generates a rescue
// workflow that contains information of the work that remains to be done").
// It returns an error if the run actually succeeded.
func RescueDAX(plan *planner.Plan, res *Result) (*dax.Workflow, error) {
	if res.Success {
		return nil, fmt.Errorf("engine: no rescue workflow for a successful run")
	}
	unfinished := make(map[string]bool, len(res.Unfinished))
	for _, id := range res.Unfinished {
		unfinished[id] = true
	}
	g := plan.Graph
	out := dax.New(g.Name + "-rescue")
	to := make([]int32, g.Len())
	for i := range int32(g.Len()) {
		j := g.JobAt(i)
		if !unfinished[j.ID] {
			to[i] = -1
			continue
		}
		to[i] = int32(out.Len())
		cp := *j
		if err := out.AddJob(&cp); err != nil {
			return nil, err
		}
	}
	out.CopyEdges(g, to)
	return out, nil
}

// WriteRescue writes the rescue workflow as DAX XML.
func WriteRescue(w io.Writer, plan *planner.Plan, res *Result) error {
	rescue, err := RescueDAX(plan, res)
	if err != nil {
		return err
	}
	return rescue.WriteXML(w)
}
