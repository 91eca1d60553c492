package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// endToEndNames are the metrics a -trace 0 run reports, in BENCHMARK.json
// order.
var endToEndNames = []string{
	"setup_s", "wall_s", "peak_rss_mib", "alloc_mib",
	"req_ms_p50", "req_ms_p99", "first_cell_ms_p50", "slo_pct", "ok_pct",
}

// perLayerNames are the metrics a -trace 1 run reports. A layer the
// workload does not exercise reports 0.
var perLayerNames = []string{
	"scenario.parse_ms", "scenario.compile_ms", "scenario.cell_ms_p50", "scenario.cell_ms_p99", "scenario.cells",
	"server.header_ms_p50", "server.stream_ms_p50", "server.refused",
	"resultcache.hit_ratio", "resultcache.evictions", "resultcache.hit_req_ms_p50",
	"core.plan_builds", "core.plan_retrievals", "core.plan_hit_ratio", "core.member_dax_builds", "core.patch_ms",
	"workflow.synth_ms", "workflow.build_dax_ms", "workflow.build_dax_allocs",
	"dax.clone_ms", "dax.clone_allocs",
	"planner.plan_ms", "planner.plan_allocs", "planner.clone_ms", "planner.clone_allocs", "planner.cluster_ms",
	"ensemble.plan_all_ms", "ensemble.sim_ms", "ensemble.ns_per_attempt",
	"engine.self_ms", "engine.ns_per_attempt", "engine.attempts", "engine.retries", "engine.failovers",
	"platform.exec_ms", "platform.ns_per_attempt", "platform.allocs",
	"stats.summarize_ms", "stats.percentile_ms",
	"runtime.gc_cpu_pct", "runtime.heap_peak_mib", "runtime.alloc_objects",
	"gen.lag_ms_p99", "trace.unattributed_pct", "trace.overhead_pct",
}

// stamp identifies the host, toolchain, code and inputs of a result.
// Results whose host fields differ are not comparable (see compare).
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newStamp(r *run) stamp {
	return stamp{
		Workload:   r.workload,
		Seed:       r.seed,
		Trace:      r.trace,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
		Commit:     commit(),
		Source:     sourceDigest(),
	}
}

// hostKey is the part of a stamp two compared results must share.
func (s stamp) hostKey() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s GOGC=%q GOMEMLIMIT=%q",
		s.Nproc, s.GOMAXPROCS, s.CPU, s.GoVersion, s.GOGC, s.GOMEMLIMIT)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git commit of the working directory, or "" outside a git
// checkout; source_sha256 identifies the code either way.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the program's Go sources and module file, so two
// results from the same code carry the same digest without git.
func sourceDigest() string {
	var files []string
	for _, dir := range []string{"internal", "cmd"} {
		filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
	}
	files = append(files, "go.mod")
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rssEvery is the resident-set sampling interval of rssMonitor.
const rssEvery = 5 * time.Millisecond

// rssMonitor samples the process's resident set in the background and
// keeps the largest reading since the last reset, so each pass or round
// reports its own peak.
type rssMonitor struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssMonitor {
	m := &rssMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.reset()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.observe()
			}
		}
	}()
	return m
}

func (m *rssMonitor) observe() {
	v := rssBytes()
	for {
		old := m.peak.Load()
		if v <= old || m.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset restarts the peak from the current resident set.
func (m *rssMonitor) reset() { m.peak.Store(rssBytes()) }

// peakMiB is the largest resident set seen since the last reset.
func (m *rssMonitor) peakMiB() float64 {
	m.observe()
	return float64(m.peak.Load()) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (m *rssMonitor) close() {
	close(m.stop)
	<-m.done
}

// rssBytes reads the process's resident set from /proc/self/statm.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rtStats is a snapshot of the runtime counters the benchmark reads.
type rtStats struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	return rtStats{
		allocBytes:   rtSamples[0].Value.Uint64(),
		allocObjects: rtSamples[1].Value.Uint64(),
		gcCPU:        rtSamples[2].Value.Float64(),
		totalCPU:     rtSamples[3].Value.Float64(),
	}
}

// compare reads captured outputs of runs (stamp and result lines, any
// number per file), refuses to compare results whose host stamps differ,
// and prints each end-to-end metric's median per side with the bound
// BENCHMARK.json fixes for it.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare BEFORE AFTER (files of captured run output)")
	}
	bounds, err := readBounds()
	if err != nil {
		return err
	}
	var sides [2]map[string]map[string][]float64 // workload -> metric -> values
	var host [2]string
	for i, path := range args {
		runs, key, err := readRuns(path)
		if err != nil {
			return err
		}
		sides[i], host[i] = runs, key
	}
	if host[0] != host[1] {
		return fmt.Errorf("refusing to compare results from different hosts:\n  %s: %s\n  %s: %s",
			args[0], host[0], args[1], host[1])
	}
	var workloads []string
	for w := range sides[0] {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	regressed := false
	for _, w := range workloads {
		for _, name := range endToEndNames {
			a, b := sides[0][w][name], sides[1][w][name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			bd := bounds[name]
			worse := (mb - ma) / ma
			if bd.better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			if worse > bd.bound {
				verdict, regressed = "WORSE", true
			}
			fmt.Printf("%-7s %-18s %12.4f -> %12.4f  (%+6.2f%%, bound %.0f%%, n=%d/%d) %s\n",
				w, name, ma, mb, 100*(mb-ma)/ma, 100*bd.bound, len(a), len(b), verdict)
		}
	}
	if regressed {
		return fmt.Errorf("a metric got worse by more than its bound")
	}
	return nil
}

type bound struct {
	better string
	bound  float64
}

func readBounds() (map[string]bound, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var cfg struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]bound{}
	for _, m := range cfg.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	return out, nil
}

// readRuns parses a file of captured run output into per-workload metric
// samples, and returns the host key shared by all its stamps.
func readRuns(path string) (map[string]map[string][]float64, string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	out := map[string]map[string][]float64{}
	key := ""
	var cur *stamp
	for _, line := range bytes.Split(b, []byte("\n")) {
		var st struct {
			Stamp *stamp `json:"stamp"`
		}
		var res result
		switch {
		case json.Unmarshal(line, &st) == nil && st.Stamp != nil:
			k := st.Stamp.hostKey()
			if key != "" && k != key {
				return nil, "", fmt.Errorf("%s mixes results from different hosts", path)
			}
			key, cur = k, st.Stamp
		case json.Unmarshal(line, &res) == nil && res.Metrics != nil && cur != nil:
			if !res.Correct {
				return nil, "", fmt.Errorf("%s: an incorrect %s run (seed %d) cannot be compared", path, cur.Workload, cur.Seed)
			}
			if out[cur.Workload] == nil {
				out[cur.Workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				out[cur.Workload][name] = append(out[cur.Workload][name], m.Value)
			}
			cur = nil
		}
	}
	if key == "" {
		return nil, "", fmt.Errorf("%s holds no stamped results", path)
	}
	return out, key, nil
}
