// Command perfbench is pegflow's benchmark. It runs one named workload
// (sweep, bigrun or serve) generated from a seed, checks every output
// against a reference, and prints the metrics named in BENCHMARK.json.
//
// With -trace 0 it measures the end-to-end metrics with tracing off. With
// -trace 1 it makes a separate traced run: it records spans around the
// calls it makes into pegflow's public functions and reports per-layer
// metrics (self times, allocations, counters) under the module names.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it is the
// environment stamp of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects its outcome.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

// set records a metric.
func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a correctness problem; any problem makes the run incorrect.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if err := compare(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench compare:", err)
				os.Exit(1)
			}
			return
		case "saturate":
			seed := uint64(1)
			if len(os.Args) > 2 {
				if _, err := fmt.Sscan(os.Args[2], &seed); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench saturate: seed:", err)
					os.Exit(2)
				}
			}
			if err := saturate(seed); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench saturate:", err)
				os.Exit(1)
			}
			return
		case "record":
			if err := record(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench record:", err)
				os.Exit(1)
			}
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run: sweep, bigrun or serve")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 15, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		metrics:  map[string]metric{},
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := r.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printResult(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute dispatches to the workload.
func (r *run) execute() error {
	var err error
	switch {
	case r.workload == "sweep" && !r.trace:
		err = r.sweep()
	case r.workload == "sweep":
		err = r.sweepTraced()
	case r.workload == "bigrun" && !r.trace:
		err = r.bigrun()
	case r.workload == "bigrun":
		err = r.bigrunTraced()
	case r.workload == "serve":
		err = r.serve()
	default:
		return fmt.Errorf("unknown workload %q (want sweep, bigrun or serve)", r.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	names := endToEndNames
	if r.trace {
		names = perLayerNames
	}
	for _, name := range names {
		if _, ok := r.metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, name)
		}
	}
	// Report exactly the metric set of the mode.
	for name := range r.metrics {
		if !contains(names, name) {
			delete(r.metrics, name)
		}
	}
	return nil
}

// printResult writes the environment stamp line and the result line.
func printResult(r *run) error {
	st, err := json.Marshal(map[string]any{"stamp": newStamp(r)})
	if err != nil {
		return err
	}
	res := result{
		Correct:   len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", st, line)
	return nil
}

func contains(xs []string, x string) bool {
	for _, s := range xs {
		if s == x {
			return true
		}
	}
	return false
}

// pctile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func pctile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return pctile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
