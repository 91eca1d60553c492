package dax

import (
	"fmt"
	"reflect"
	"testing"
)

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// buildFuzzWorkflow interprets data as a little op-code program over a
// workflow and, in lockstep, over the map-based reference: each pair of
// bytes adds a job, a dependency edge, or a file usage. The decoder is
// total — every byte string yields some workflow — so the fuzzer explores
// the full constructor surface including cycles, self-edges, unknown
// endpoints, duplicate files and disconnected jobs. Job IDs range over
// j0..j255, so sorted-ID order routinely differs from insertion order
// (j10 sorts before j9). Both graphs hold the same *Job values; every
// mutation must fail or succeed alike, with the same error text.
func buildFuzzWorkflow(t *testing.T, data []byte) (*Workflow, *refWorkflow, []string) {
	w, ref := New("fuzz"), newRef("fuzz")
	var ids []string
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 4 {
		case 0:
			j := &Job{ID: fmt.Sprintf("j%d", arg), Transformation: fmt.Sprintf("t%d", arg%4)}
			err, rerr := w.AddJob(j), ref.AddJob(j)
			if errText(err) != errText(rerr) {
				t.Fatalf("AddJob(%q): error %q, reference %q", j.ID, errText(err), errText(rerr))
			}
			if err == nil {
				ids = append(ids, j.ID)
			}
		case 1:
			if len(ids) == 0 {
				continue
			}
			parent := ids[int(arg>>4)%len(ids)]
			child := ids[int(arg&0x0f)%len(ids)]
			if arg == 0xff {
				parent = "missing"
			}
			err, rerr := w.AddDependency(parent, child), ref.AddDependency(parent, child)
			if errText(err) != errText(rerr) {
				t.Fatalf("AddDependency(%q, %q): error %q, reference %q",
					parent, child, errText(err), errText(rerr))
			}
		case 2:
			if len(ids) > 0 {
				w.Job(ids[int(arg>>4)%len(ids)]).AddInput(fmt.Sprintf("f%d", arg%8), int64(arg))
			}
		case 3:
			if len(ids) > 0 {
				w.Job(ids[int(arg>>4)%len(ids)]).AddOutput(fmt.Sprintf("f%d", arg%8), int64(arg))
			}
		}
	}
	return w, ref, ids
}

// assertSameGraph requires w and ref to answer every read identically,
// errors included.
func assertSameGraph(t *testing.T, w *Workflow, ref *refWorkflow) {
	t.Helper()
	if w.Len() != ref.Len() {
		t.Fatalf("Len %d, reference %d", w.Len(), ref.Len())
	}
	for i, j := range w.Jobs() {
		if rj := ref.Jobs()[i]; rj.ID != j.ID || !reflect.DeepEqual(*rj, *j) {
			t.Fatalf("job %d: %+v, reference %+v", i, *j, *rj)
		}
		if got, want := w.Parents(j.ID), ref.Parents(j.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("Parents(%q) = %v, reference %v", j.ID, got, want)
		}
		if got, want := w.Children(j.ID), ref.Children(j.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("Children(%q) = %v, reference %v", j.ID, got, want)
		}
	}
	same := func(what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s = %v, reference %v", what, got, want)
		}
	}
	same("Roots", w.Roots(), ref.Roots())
	same("Leaves", w.Leaves(), ref.Leaves())
	same("Edges", w.Edges(), ref.Edges())
	order, err := w.TopoSort()
	rorder, rerr := ref.TopoSort()
	same("TopoSort", []any{order, errText(err)}, []any{rorder, errText(rerr)})
	levels, err := w.Levels()
	rlevels, rerr := ref.Levels()
	same("Levels", []any{levels, errText(err)}, []any{rlevels, errText(rerr)})
	cp, err := w.CriticalPathLength()
	rcp, rerr := ref.CriticalPathLength()
	same("CriticalPathLength", []any{cp, errText(err)}, []any{rcp, errText(rerr)})
	same("Validate", errText(w.Validate()), errText(ref.Validate()))
}

// growBoth adds one job and an edge from an existing job to it, to both
// graphs.
func growBoth(t *testing.T, w *Workflow, ref *refWorkflow, from, id string) {
	t.Helper()
	for _, add := range []func(*Job) error{w.AddJob, ref.AddJob} {
		if err := add(&Job{ID: id, Transformation: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AddDependency(from, id); err != nil {
		t.Fatal(err)
	}
	if err := ref.AddDependency(from, id); err != nil {
		t.Fatal(err)
	}
}

// FuzzWorkflowOps is a differential test of the DAG against the map-based
// reference under arbitrary construction sequences: every read — Parents,
// Children, TopoSort, Levels, Roots, Leaves, Edges, CriticalPathLength,
// Validate — must agree, errors included, before and after Clone and
// InferDependencies, and a clone must be independent of its original in
// both directions. It also checks the invariants directly: TopoSort yields
// a dependency-respecting permutation exactly when the graph is acyclic,
// and Levels/CriticalPathLength agree with the sort.
func FuzzWorkflowOps(f *testing.F) {
	for _, s := range [][]byte{
		{},
		{0, 1, 0, 2, 1, 0x01},
		{0, 1, 0, 2, 0, 3, 1, 0x01, 1, 0x12, 1, 0x20},                   // includes a cycle attempt
		{0, 5, 2, 0x03, 3, 0x03},                                        // producer/consumer of the same file
		{0, 1, 0, 2, 3, 0x04, 2, 0x14},                                  // data-flow edge material
		{0, 0, 1, 0x00},                                                 // self-dependency attempt
		{0, 9, 0, 10, 0, 100, 0, 2, 1, 0x01, 1, 0x02, 1, 0x03, 1, 0x01}, // j10, j100 sort before j9, j2
		{0, 1, 1, 0xff},                                                 // unknown parent
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, ref, ids := buildFuzzWorkflow(t, data)
		assertSameGraph(t, w, ref)

		if len(ids) > 0 {
			// Clone independence: the clone matches the reference, and
			// growing either side leaves the other unchanged.
			clone, rclone := w.Clone(), ref.Clone()
			assertSameGraph(t, clone, ref)
			growBoth(t, w, ref, ids[0], "grown_original")
			assertSameGraph(t, clone, rclone)
			assertSameGraph(t, w, ref)
			growBoth(t, clone, rclone, ids[len(ids)-1], "grown_clone")
			assertSameGraph(t, w, ref)
			assertSameGraph(t, clone, rclone)
		}

		if w.Len() == 0 {
			if err := w.Validate(); err == nil {
				t.Fatal("Validate accepted an empty workflow")
			}
			return
		}
		checkOrderInvariants(t, w)

		// InferDependencies may reject (a job both producing and
		// consuming a file) or introduce a cycle that Validate then
		// reports — either way, both graphs agree and nothing panics.
		err, rerr := w.InferDependencies(), ref.InferDependencies()
		if errText(err) != errText(rerr) {
			t.Fatalf("InferDependencies: error %q, reference %q", errText(err), errText(rerr))
		}
		assertSameGraph(t, w, ref)
	})
}

// checkOrderInvariants checks TopoSort, Levels and CriticalPathLength
// against the graph's own edges.
func checkOrderInvariants(t *testing.T, w *Workflow) {
	t.Helper()
	order, terr := w.TopoSort()
	verr := w.Validate()
	if terr != nil {
		// A cyclic graph must fail validation too.
		if verr == nil {
			t.Fatalf("TopoSort failed (%v) but Validate passed", terr)
		}
		return
	}
	if len(order) != w.Len() {
		t.Fatalf("TopoSort returned %d of %d jobs", len(order), w.Len())
	}
	pos := make(map[string]int, len(order))
	for i, id := range order {
		if w.Job(id) == nil {
			t.Fatalf("TopoSort emitted unknown job %q", id)
		}
		if _, dup := pos[id]; dup {
			t.Fatalf("TopoSort emitted %q twice", id)
		}
		pos[id] = i
	}
	for _, j := range w.Jobs() {
		for _, p := range w.Parents(j.ID) {
			if pos[p] >= pos[j.ID] {
				t.Fatalf("dependency inverted in TopoSort: %q (%d) before parent %q (%d)",
					j.ID, pos[j.ID], p, pos[p])
			}
		}
	}

	levels, err := w.Levels()
	if err != nil {
		t.Fatalf("Levels failed on acyclic graph: %v", err)
	}
	level := make(map[string]int)
	n := 0
	for li, ids := range levels {
		for _, id := range ids {
			level[id] = li
			n++
		}
	}
	if n != w.Len() {
		t.Fatalf("Levels covered %d of %d jobs", n, w.Len())
	}
	for _, j := range w.Jobs() {
		for _, p := range w.Parents(j.ID) {
			if level[p] >= level[j.ID] {
				t.Fatalf("level of %q (%d) not above parent %q (%d)",
					j.ID, level[j.ID], p, level[p])
			}
		}
	}

	cp, err := w.CriticalPathLength()
	if err != nil {
		t.Fatalf("CriticalPathLength failed on acyclic graph: %v", err)
	}
	if cp < 1 || cp > w.Len() {
		t.Fatalf("critical path %d outside [1, %d]", cp, w.Len())
	}
	if cp != len(levels) {
		t.Fatalf("critical path %d != level count %d", cp, len(levels))
	}
}
