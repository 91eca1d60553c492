package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// minimal is a small, fast, valid scenario exercising both execution
// paths: a built-in preset pair swept as single-site sets.
const minimal = `{
  "version": 1,
  "name": "unit-test",
  "sites": [
    {"preset": "sandhills", "slots": 24},
    {"preset": "osg", "slots": 48}
  ],
  "site_sets": [["sandhills"], ["osg"]],
  "workload": {
    "params": {"num_clusters": 200, "max_cluster_size": 60, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [4, 8],
    "seeds": [7]
  },
  "outputs": {"percentiles": [50, 99]}
}`

func parseMinimal(t *testing.T) *Doc {
	t.Helper()
	doc, err := Parse("unit.json", []byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseAppliesDefaults(t *testing.T) {
	doc := parseMinimal(t)
	if doc.Sites[0].Name != "sandhills" {
		t.Errorf("site name not defaulted from preset: %q", doc.Sites[0].Name)
	}
	if len(doc.Policies.Site) != 1 || doc.Policies.Site[0] != "" {
		t.Errorf("single-site sets should default to the empty policy axis, got %v", doc.Policies.Site)
	}
	if got := len(doc.Workload.Seeds); got != 1 {
		t.Errorf("seeds = %d, want explicit [7] preserved", got)
	}
	if *doc.Retries != 5 {
		t.Errorf("retries default = %d, want 5", *doc.Retries)
	}
	if len(doc.Outputs.Fields) != len(MetricFields()) {
		t.Errorf("fields should default to all metrics, got %v", doc.Outputs.Fields)
	}
}

func TestParseErrorsAreLineAndFieldQualified(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string // substrings of the error
	}{
		{
			name: "negative slots with line",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [
    {"preset": "osg",
     "slots": -3}
  ],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:6", "sites[0].slots", "must be positive, got -3"},
		},
		{
			name: "unknown preset",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "condor"}],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:4", "sites[0].preset", `unknown preset "condor"`},
		},
		{
			name: "unknown output field",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [10]},
  "outputs": {"fields": ["makespan_s", "latency"]}
}`,
			want: []string{"bad.json:6", "outputs.fields[1]", `unknown field "latency"`},
		},
		{
			name: "undefined site in set",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "site_sets": [["osg", "grid5000"]],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:5", "site_sets[0][1]", "not defined"},
		},
		{
			name: "failover on single-site set",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [10]},
  "policies": {"failover": [true]}
}`,
			want: []string{"policies.failover[0]", "at least two sites"},
		},
		{
			name: "unknown top-level key",
			src: `{
  "version": 1,
  "name": "bad",
  "platforms": []
}`,
			want: []string{"bad.json:", "unknown field"},
		},
		{
			name: "syntax error with line",
			src: `{
  "version": 1,
  "name": "bad",,
}`,
			want: []string{"bad.json:3"},
		},
		{
			name: "type error with field",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg", "slots": "many"}],
  "workload": {"preset": "paper", "n": [10]}
}`,
			want: []string{"bad.json:4", "slots"},
		},
		{
			name: "chunk count above the cap",
			src: `{
  "version": 1,
  "name": "bad",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper",
               "n": [1000000, 1000000000]}
}`,
			want: []string{"bad.json:6", "workload.n[1]: must be at most 1000000, got 1000000000"},
		},
		{
			name: "multiple errors reported together",
			src: `{
  "version": 3,
  "name": "",
  "sites": [],
  "workload": {"n": []}
}`,
			want: []string{"version", "name", "sites", "workload"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.json", []byte(tc.src))
			if err == nil {
				t.Fatal("expected an error")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q\nmissing substring %q", err, w)
				}
			}
		})
	}
}

func TestFingerprintNormalizesFormatting(t *testing.T) {
	a := parseMinimal(t)
	// Same document, different whitespace and key order.
	reordered := `{
  "name": "unit-test",
  "outputs": {"percentiles": [50, 99]},
  "workload": {"seeds": [7], "n": [4, 8],
    "params": {"mean_read_len": 900, "num_clusters": 200, "max_cluster_size": 60, "size_exponent": 0.5}},
  "site_sets": [["sandhills"], ["osg"]],
  "sites": [{"preset": "sandhills", "slots": 24}, {"preset": "osg", "slots": 48}],
  "version": 1
}`
	b, err := Parse("b.json", []byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint depends on formatting/key order")
	}
	// A semantic change must change it.
	c := parseMinimal(t)
	c.Workload.N = []int{4, 9}
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fingerprint ignored a semantic change")
	}
}

func TestCompileExpandsGridInOrder(t *testing.T) {
	doc := parseMinimal(t)
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 site sets × 2 n × 1 seed × 1 policy × 1 cluster × 1 failover.
	if len(c.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(c.Cells))
	}
	want := []struct {
		site string
		n    int
	}{
		{"sandhills", 4}, {"sandhills", 8}, {"osg", 4}, {"osg", 8},
	}
	for i, w := range want {
		cell := c.Cells[i]
		if cell.Index != i || cell.SiteSet[0] != w.site || cell.N != w.n {
			t.Errorf("cell %d = %+v, want site %s n %d", i, cell, w.site, w.n)
		}
		if site, ok := c.experimentSite(cell); !ok || site != w.site {
			t.Errorf("cell %d: expected the plan-cached experiment path for %s", i, w.site)
		}
	}
}

func TestExperimentPathEligibility(t *testing.T) {
	src := `{
  "version": 1,
  "name": "edge",
  "sites": [
    {"preset": "sandhills", "slots": 16},
    {"name": "osg-slow", "preset": "osg", "slots": 16, "speed_factor": 2.0}
  ],
  "site_sets": [["sandhills"], ["osg-slow"], ["sandhills", "osg-slow"]],
  "workload": {"params": {"num_clusters": 100, "max_cluster_size": 40, "size_exponent": 0.5, "mean_read_len": 800}, "n": [4]}
}`
	doc, err := Parse("edge.json", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(c.Cells))
	}
	if _, ok := c.experimentSite(c.Cells[0]); !ok {
		t.Error("pristine sandhills preset should take the experiment path")
	}
	if _, ok := c.experimentSite(c.Cells[1]); ok {
		t.Error("renamed+overridden osg must take the general path")
	}
	if _, ok := c.experimentSite(c.Cells[2]); ok {
		t.Error("multi-site set must take the general path")
	}
}

func TestCellCapEnforced(t *testing.T) {
	src := `{
  "version": 1,
  "name": "huge",
  "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [` + strings.Repeat("1,", 5000) + `1]}
}`
	_, err := Parse("huge.json", []byte(src))
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("expected the cell cap to trip, got %v", err)
	}
}

// TestValidationErrorOrderIsDeterministic pins the detrange fix in
// validateSites: the per-field negativity checks used to range a map, so
// a scenario with several bad fields reported them in a different order
// on different runs. They must come out in field declaration order,
// identically, every time.
func TestValidationErrorOrderIsDeterministic(t *testing.T) {
	bad := `{
  "version": 1,
  "name": "bad-fields",
  "sites": [
    {"name": "s", "slots": 4, "speed_factor": 1.0,
     "submit_interval": -1, "dispatch_mean": -2, "setup_mean": -3,
     "eviction_rate": -4, "stage_in_mbps": -5}
  ],
  "workload": {
    "params": {"num_clusters": 10, "max_cluster_size": 6, "size_exponent": 0.5, "mean_read_len": 900},
    "n": [2]
  }
}`
	_, err := Parse("bad.json", []byte(bad))
	if err == nil {
		t.Fatal("want validation errors, got nil")
	}
	first := err.Error()
	order := []string{"submit_interval", "dispatch_mean", "setup_mean", "eviction_rate", "stage_in_mbps"}
	last := -1
	for _, field := range order {
		i := strings.Index(first, field)
		if i < 0 {
			t.Fatalf("error is missing field %q:\n%s", field, first)
		}
		if i < last {
			t.Fatalf("field %q reported out of declaration order:\n%s", field, first)
		}
		last = i
	}
	for run := 0; run < 20; run++ {
		_, err := Parse("bad.json", []byte(bad))
		if err == nil || err.Error() != first {
			t.Fatalf("run %d: error text changed:\n%s\nvs\n%s", run, err, first)
		}
	}
}

// TestChunkCountCapBoundary pins the cap itself: n = MaxChunks parses,
// one more is refused with a field-qualified error.
func TestChunkCountCapBoundary(t *testing.T) {
	doc := func(n int) string {
		return fmt.Sprintf(`{"version": 1, "name": "cap", "sites": [{"preset": "osg"}],
  "workload": {"preset": "paper", "n": [%d]}}`, n)
	}
	if _, err := Parse("cap.json", []byte(doc(MaxChunks))); err != nil {
		t.Fatalf("n = %d refused: %v", MaxChunks, err)
	}
	_, err := Parse("cap.json", []byte(doc(MaxChunks+1)))
	if err == nil || !strings.Contains(err.Error(), "workload.n[0]: must be at most 1000000, got 1000001") {
		t.Fatalf("n = %d: error %v", MaxChunks+1, err)
	}
}
