package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Latency limits behind slo_pct: the share of operations (documents for
// sweep and bigrun, requests for serve) whose output completed within the
// limit. A failed operation misses.
const (
	sweepSLO  = 2 * time.Second
	bigrunSLO = 30 * time.Second
	serveSLO  = 50 * time.Millisecond
)

// sweep: a researcher's batch, closed loop, one cold process.
func (r *run) sweep() error {
	compiled, setup, err := setupDocs(func() []doc { return sweepDocs(r.seed) }, 50)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)
	passes := r.closedLoop(compiled, 3, sweepSLO)

	// Reference: the same documents serially (one worker) from a cold
	// cache must give the same bytes as the parallel timed passes.
	ref := runPass(compiled, 1, nil)
	for i, d := range ref.docs {
		if d.err != nil || d.digest != passes[0].docs[i].digest {
			r.failed += d.cells * len(passes)
			r.fail("%s: timed output differs from the serial reference (err %v)", compiled[i].Doc.Name, d.err)
		}
	}
	r.checkPinned("sweep")
	r.setOK()
	return nil
}

// bigrun: one aggregated 10^5-chunk cell on the two-site world.
func (r *run) bigrun() error {
	compiled, setup, err := setupDocs(func() []doc { return []doc{bigDoc(r.seed, bigrunN, true)} }, 1000)
	if err != nil {
		return err
	}
	r.set("setup_s", "s", setup)
	passes := r.closedLoop(compiled, 3, bigrunSLO)

	// Reference: the exact (record-retaining) run of the same cell must
	// reproduce the aggregated cell's simulated fields.
	exact, err := compileDocs([]doc{bigDoc(r.seed, bigrunN, false)})
	if err != nil {
		return err
	}
	ref := runPass(exact, runtime.NumCPU(), nil)
	if err := sameCells(passes[0].docs[0].lines, ref.docs[0].lines, ref.docs[0].err); err != nil {
		r.failed += len(passes)
		r.fail("aggregated cell differs from the exact reference: %v", err)
	}
	r.checkPinned("bigrun")
	r.setOK()
	return nil
}

// sameCells checks that two streams carry the same simulated fields cell
// by cell.
func sameCells(got, want [][]byte, wantErr error) error {
	if wantErr != nil {
		return wantErr
	}
	g, err := cellLines(got)
	if err != nil {
		return err
	}
	w, err := cellLines(want)
	if err != nil {
		return err
	}
	if len(g) != len(w) {
		return fmt.Errorf("%d cells, reference has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("cell %d: %+v, reference %+v", i, g[i], w[i])
		}
	}
	return nil
}

// Pinned references: each workload has canary documents at fixed seeds
// whose stream digests are checked in (reference.json). They are run
// after the measurement, whatever the run's seed, so a change to the
// program's output shows on every run. `run.sh record` re-pins them.

//go:embed reference.json
var pinnedJSON []byte

func canaryDocs(workload string) []doc {
	switch workload {
	case "sweep":
		return []doc{fig4Doc("canary-fig4", "42"), failoverDoc("canary-failover", "7"), ensembleDoc("canary-ensemble", "42")}
	case "bigrun":
		return []doc{bigDoc(42, 10000, true)}
	default:
		return []doc{serveDoc("canary-serve", 1500, 42)}
	}
}

// canaryDigest runs a workload's canary documents cold and digests their
// streams.
func canaryDigest(workload string) (string, error) {
	compiled, err := compileDocs(canaryDocs(workload))
	if err != nil {
		return "", err
	}
	p := runPass(compiled, runtime.NumCPU(), nil)
	var all [][]byte
	for _, d := range p.docs {
		if d.err != nil {
			return "", d.err
		}
		all = append(all, d.lines...)
	}
	return digest(all), nil
}

func (r *run) checkPinned(workload string) {
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		r.fail("reference.json: %v", err)
		return
	}
	got, err := canaryDigest(workload)
	switch {
	case err != nil:
		r.fail("canary %s: %v", workload, err)
	case got != pinned[workload]:
		r.fail("canary %s: stream digest %s, pinned %s", workload, got, pinned[workload])
	}
	// The canary run counts as one operation.
	r.attempted++
	if err != nil || got != pinned[workload] {
		r.failed++
	}
}

// record re-pins reference.json from the current program.
func record() error {
	out := map[string]string{}
	for _, w := range []string{"sweep", "bigrun", "serve"} {
		d, err := canaryDigest(w)
		if err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
		out[w] = d
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("perfbench/reference.json", append(b, '\n'), 0o644)
}
