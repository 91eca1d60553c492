package workflow

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"pegflow/internal/catalog"
	"pegflow/internal/dax"
	"pegflow/internal/planner"
	"pegflow/internal/sim/rng"
)

// Transformation names used by the blast2cap3 workflow.
const (
	TrListTranscripts = "create_list_transcripts"
	TrListAlignments  = "create_list_alignments"
	TrSplit           = "split"
	TrRunCAP3         = "run_cap3"
	TrMerge           = "merge"
	TrMergeNotJoined  = "merge_not_joined"
	// TrSerial is the monolithic serial blast2cap3 run (the baseline).
	TrSerial = "blast2cap3_serial"
)

// Transformations lists the workflow's logical executables (excluding the
// serial baseline).
func Transformations() []string {
	return []string{
		TrListTranscripts, TrListAlignments, TrSplit, TrRunCAP3, TrMerge, TrMergeNotJoined,
	}
}

// ClusterSpec describes one protein cluster of transcripts: the unit of
// CAP3 work that blast2cap3 never splits across chunks.
type ClusterSpec struct {
	// Transcripts is the number of transcripts sharing the protein hit.
	Transcripts int
	// Bases is the total nucleotide count across those transcripts.
	Bases int
}

// Workload describes a blast2cap3 input dataset at the granularity the
// simulation needs.
type Workload struct {
	// Name labels the dataset.
	Name string
	// Clusters holds the protein clusters in descending size order.
	Clusters []ClusterSpec
	// TotalTranscripts counts all transcripts including unclustered ones.
	TotalTranscripts int
	// TranscriptBytes and AlignmentBytes are the input file sizes
	// ("transcripts.fasta" 404 MB, "alignments.out" 155 MB).
	TranscriptBytes, AlignmentBytes int64
	// Seed drives the cluster→chunk assignment permutation.
	Seed uint64
	// Params records the rank-size law Clusters was synthesized from; it
	// is the workload's seed-independent fingerprint, used to memoize
	// cluster synthesis and cost-model sums and to key the plan cache
	// (package core). It is zero for hand-built workloads, which are
	// never cached. When Params is set, Clusters is shared with every
	// other workload of the same Params and must be treated as read-only;
	// code that hand-edits Clusters must clear Params.
	Params WorkloadParams
}

// PaperWorkload returns the synthetic equivalent of the paper's Triticum
// urartu dataset (NCBI BioProject PRJNA191053 after assembly): 236,529
// transcripts (404 MB FASTA) and 1,717,454 BLASTX protein hits (155 MB
// tabular). Cluster sizes follow a Zipf rank-size law m(r) = 600/√r over
// 40,000 protein clusters, which yields ≈240k clustered transcripts and —
// through the CAP3 cost model — the heavy-tailed chunk-work distribution
// that explains the paper's plateau at n ≥ 100 (DESIGN.md §4).
func PaperWorkload(seed uint64) Workload {
	return CustomWorkload(WorkloadParams{
		NumClusters:    40000,
		MaxClusterSize: 600,
		SizeExponent:   0.5,
		MeanReadLen:    1500,
	}, seed)
}

// WorkloadParams shapes a synthetic workload's cluster-size rank law
// size(r) = MaxClusterSize / r^SizeExponent.
type WorkloadParams struct {
	NumClusters    int
	MaxClusterSize int
	SizeExponent   float64
	MeanReadLen    int
}

// CustomWorkload builds a workload with the given rank-size law, keeping
// the paper's file sizes. Used by the skew ablation (DESIGN.md A4).
//
// Cluster synthesis is seed-independent (the seed only drives the
// cluster→chunk assignment permutation), so the Clusters slice is
// memoized per WorkloadParams and shared read-only across workloads —
// sweeps construct one Experiment per grid cell, and without memoization
// each paid the 40,000-cluster synthesis again. Do NOT mutate the
// returned Clusters in place: it is aliased by every workload with the
// same params (and read concurrently by sweep workers). To customize
// clusters, replace the slice wholesale and clear Params.
func CustomWorkload(p WorkloadParams, seed uint64) Workload {
	return Workload{
		Name:             "triticum-urartu-synthetic",
		Clusters:         clustersFor(p),
		TotalTranscripts: 236529,
		TranscriptBytes:  404 << 20,
		AlignmentBytes:   155 << 20,
		Seed:             seed,
		Params:           p,
	}
}

// clusterCache memoizes cluster synthesis per WorkloadParams.
var clusterCache sync.Map // WorkloadParams -> []ClusterSpec

func clustersFor(p WorkloadParams) []ClusterSpec {
	if v, ok := clusterCache.Load(p); ok {
		return v.([]ClusterSpec)
	}
	sizes := rng.ZipfSizes(p.NumClusters, p.SizeExponent, p.MaxClusterSize)
	clusters := make([]ClusterSpec, p.NumClusters)
	for i, m := range sizes {
		clusters[i] = ClusterSpec{Transcripts: m, Bases: m * p.MeanReadLen}
	}
	v, _ := clusterCache.LoadOrStore(p, clusters)
	return v.([]ClusterSpec)
}

// CostModel converts workload quantities into reference-machine seconds.
// The constants are calibrated (DESIGN.md §4) so that the serial run costs
// ≈100 h and the largest protein cluster ≈9,300 s, reproducing the paper's
// inline numbers.
type CostModel struct {
	// OverlapCoeff and OverlapExp give the CAP3 overlap-detection cost
	// a·m^e for a cluster of m transcripts (superlinear: pairwise
	// overlaps pruned by k-mer filtering).
	OverlapCoeff, OverlapExp float64
	// BasesPerSec is the linear consensus/I-O rate of CAP3.
	BasesPerSec float64
	// ReadMBps is the Python-side rate for scanning the input files
	// (list creation, splitting, merging).
	ReadMBps float64
	// TaskBase is the fixed per-task startup cost (interpreter launch,
	// file opening).
	TaskBase float64
	// SplitPerChunk and MergePerFile are per-chunk costs of writing and
	// reading the n intermediate files; they grow with n and create the
	// mild penalty beyond the optimum cluster count.
	SplitPerChunk, MergePerFile float64
	// SerialOverheadFactor inflates the monolithic serial run relative
	// to the sum of the workflow tasks' costs: the single-process Python
	// implementation re-queries the full transcript dictionary and
	// re-launches CAP3 per cluster with cold caches, overhead the
	// decomposed tasks do not pay (paper §V.B).
	SerialOverheadFactor float64
}

// DefaultCostModel returns the calibrated constants.
func DefaultCostModel() CostModel {
	return CostModel{
		OverlapCoeff:         0.3050,
		OverlapExp:           1.6,
		BasesPerSec:          50000,
		ReadMBps:             4.0,
		TaskBase:             30,
		SplitPerChunk:        1.0,
		MergePerFile:         4.0,
		SerialOverheadFactor: 1.115,
	}
}

// ClusterSeconds is the CAP3 cost of one protein cluster.
func (c CostModel) ClusterSeconds(spec ClusterSpec) float64 {
	if spec.Transcripts <= 1 {
		// Singleton clusters pass through without assembly work beyond I/O.
		return float64(spec.Bases) / c.BasesPerSec
	}
	return c.OverlapCoeff*math.Pow(float64(spec.Transcripts), c.OverlapExp) +
		float64(spec.Bases)/c.BasesPerSec
}

// scanSeconds is the cost of streaming through size bytes.
func (c CostModel) scanSeconds(size int64) float64 {
	return c.TaskBase + float64(size)/(c.ReadMBps*1e6)
}

// costKey pairs a workload fingerprint with a cost model — the memoization
// key for seed-independent cost sums.
type costKey struct {
	params WorkloadParams
	cost   CostModel
}

// clusterSecsCache memoizes the per-cluster CAP3 seconds of synthesized
// workloads: the values depend only on (params, cost model), while the
// seed only permutes which chunk each cluster lands in.
var clusterSecsCache sync.Map // costKey -> []float64

// clusterSecondsAll returns memoized per-cluster seconds for a synthesized
// workload, or nil when the workload is hand-built (no Params fingerprint).
func (c CostModel) clusterSecondsAll(w Workload) []float64 {
	if w.Params == (WorkloadParams{}) {
		return nil
	}
	key := costKey{w.Params, c}
	if v, ok := clusterSecsCache.Load(key); ok {
		return v.([]float64)
	}
	secs := make([]float64, len(w.Clusters))
	for i, cl := range w.Clusters {
		secs[i] = c.ClusterSeconds(cl)
	}
	v, _ := clusterSecsCache.LoadOrStore(key, secs)
	return v.([]float64)
}

// SerialSeconds is the reference-machine running time of the original
// serial blast2cap3: scan both inputs, then process every cluster
// consecutively (paper §V.B — 100 hours for the wheat dataset).
func (c CostModel) SerialSeconds(w Workload) float64 {
	total := c.scanSeconds(w.TranscriptBytes) + c.scanSeconds(w.AlignmentBytes)
	if secs := c.clusterSecondsAll(w); secs != nil {
		for _, s := range secs {
			total += s
		}
	} else {
		for _, cl := range w.Clusters {
			total += c.ClusterSeconds(cl)
		}
	}
	// Final concatenation of joined and unjoined transcripts.
	total += c.scanSeconds(w.TranscriptBytes)
	if c.SerialOverheadFactor > 1 {
		total *= c.SerialOverheadFactor
	}
	return total
}

// ChunkSeconds computes the per-chunk CAP3 seconds for an n-way split: the
// workload's clusters are dealt to chunks round-robin over a seeded
// permutation (blast2cap3 assigns whole clusters to chunk files; the
// permutation models the arbitrary protein order of "alignments.out").
// For synthesized workloads the per-cluster seconds come from the memoized
// table — identical values accumulated in identical order, so results are
// bit-equal to the direct computation.
func (c CostModel) ChunkSeconds(w Workload, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workflow: non-positive chunk count %d", n)
	}
	perm := rng.New(w.Seed).Derive("chunk-assignment").Perm(len(w.Clusters))
	chunks := make([]float64, n)
	if secs := c.clusterSecondsAll(w); secs != nil {
		for i, ci := range perm {
			chunks[i%n] += secs[ci]
		}
	} else {
		for i, ci := range perm {
			chunks[i%n] += c.ClusterSeconds(w.Clusters[ci])
		}
	}
	for i := range chunks {
		chunks[i] += c.TaskBase
	}
	return chunks, nil
}

// BuilderConfig configures DAX construction.
type BuilderConfig struct {
	// N is the number of cluster chunks (the paper's n: 10/100/300/500).
	N int
	// Workload supplies the dataset; leave Clusters empty for real-mode
	// workflows where runtimes are unknown (no runtime profiles set).
	Workload Workload
	// Cost converts workload to seconds (zero value → DefaultCostModel
	// when the workload has clusters).
	Cost CostModel
}

// ChunkJobID returns the executable job ID of the i-th (0-based) run_cap3
// chunk of an n-way split — the naming contract shared by the DAX builder
// and the plan cache's per-seed runtime patching (internal/core).
func ChunkJobID(i int) string { return numbered("run_cap3_", i+1, 4, "") }

// numbered returns prefix, then k ≥ 0 in decimal zero-padded to width
// digits, then suffix — fmt's "%0*d" without its boxing and parsing.
func numbered(prefix string, k, width int, suffix string) string {
	var buf [48]byte
	b := append(buf[:0], prefix...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(k), 10)
	for pad := width - len(d); pad > 0; pad-- {
		b = append(b, '0')
	}
	b = append(append(b, d...), suffix...)
	return string(b)
}

// BuildDAX constructs the abstract blast2cap3 workflow for n chunks.
func BuildDAX(cfg BuilderConfig) (*dax.Workflow, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workflow: cluster count n must be positive, got %d", cfg.N)
	}
	w := cfg.Workload
	cost := cfg.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	simulated := len(w.Clusters) > 0

	wf := dax.New(fmt.Sprintf("blast2cap3-n%d", cfg.N))

	setRuntime := func(j *dax.Job, seconds float64) {
		if simulated {
			j.SetProfile("pegasus", "runtime", strconv.FormatFloat(seconds, 'f', 3, 64))
		}
	}

	lt := wf.NewJob("create_list_transcripts", TrListTranscripts).
		AddInput("transcripts.fasta", w.TranscriptBytes).
		AddOutput("transcripts_dict.txt", w.TranscriptBytes/8)
	lt.Args = []string{"transcripts.fasta", "transcripts_dict.txt"}
	setRuntime(lt, cost.scanSeconds(w.TranscriptBytes))

	la := wf.NewJob("create_list_alignments", TrListAlignments).
		AddInput("alignments.out", w.AlignmentBytes).
		AddOutput("alignments_list.txt", w.AlignmentBytes/16)
	la.Args = []string{"alignments.out", "alignments_list.txt"}
	setRuntime(la, cost.scanSeconds(w.AlignmentBytes))

	sp := wf.NewJob("split", TrSplit)
	sp.Uses = make([]dax.Use, 0, 2+cfg.N)
	sp.AddInput("alignments.out", w.AlignmentBytes).
		AddInput("alignments_list.txt", w.AlignmentBytes/16)
	sp.Args = []string{"-n", fmt.Sprint(cfg.N), "alignments.out"}
	setRuntime(sp, cost.scanSeconds(w.AlignmentBytes)+cost.SplitPerChunk*float64(cfg.N))
	if err := wf.AddDependency("create_list_alignments", "split"); err != nil {
		return nil, err
	}

	var chunks []float64
	if simulated {
		var err error
		chunks, err = cost.ChunkSeconds(w, cfg.N)
		if err != nil {
			return nil, err
		}
	}

	// The chunk jobs, their usages and arguments come from one array
	// each, and edges are linked by position: chunk i sits at first+i.
	splitPos, _ := wf.Pos("split")
	listPos, _ := wf.Pos("create_list_transcripts")
	first := int32(wf.Len())
	wf.Grow(cfg.N + 2)
	jobs := make([]dax.Job, cfg.N)
	uses := make([]dax.Use, 3*cfg.N)
	args := make([]string, 3*cfg.N)
	joined := make([]string, cfg.N)
	chunkBytes := w.AlignmentBytes / int64(cfg.N)
	for i := 0; i < cfg.N; i++ {
		proteinLFN := numbered("protein_", i+1, 0, ".txt")
		joined[i] = numbered("joined_", i+1, 0, ".fasta")
		sp.AddOutput(proteinLFN, chunkBytes)
		rc := &jobs[i]
		rc.ID, rc.Transformation = ChunkJobID(i), TrRunCAP3
		rc.Uses = uses[3*i : 3*i : 3*i+3]
		rc.AddInput("transcripts_dict.txt", w.TranscriptBytes/8).
			AddInput(proteinLFN, chunkBytes).
			AddOutput(joined[i], chunkBytes/2)
		rc.Args = append(args[3*i:3*i:3*i+3], "transcripts_dict.txt", proteinLFN, joined[i])
		if simulated {
			setRuntime(rc, chunks[i])
		}
		if err := wf.AddJob(rc); err != nil {
			return nil, err
		}
		pos := first + int32(i)
		if err := wf.Link(splitPos, pos); err != nil {
			return nil, err
		}
		if err := wf.Link(listPos, pos); err != nil {
			return nil, err
		}
	}

	mergePos := int32(wf.Len())
	mg := wf.NewJob("merge", TrMerge)
	mg.Uses = make([]dax.Use, 0, cfg.N+1)
	mg.AddOutput("joined_all.fasta", w.TranscriptBytes/4)
	mg.Args = []string{"-n", fmt.Sprint(cfg.N), "joined_all.fasta"}
	setRuntime(mg, cost.TaskBase+cost.MergePerFile*float64(cfg.N))
	for i := 0; i < cfg.N; i++ {
		mg.AddInput(joined[i], chunkBytes/2)
		if err := wf.Link(first+int32(i), mergePos); err != nil {
			return nil, err
		}
	}

	mnj := wf.NewJob("merge_not_joined", TrMergeNotJoined).
		AddInput("joined_all.fasta", w.TranscriptBytes/4).
		AddInput("transcripts_dict.txt", w.TranscriptBytes/8).
		AddOutput("final_assembly.fasta", w.TranscriptBytes/2)
	mnj.Args = []string{"joined_all.fasta", "transcripts_dict.txt", "final_assembly.fasta"}
	setRuntime(mnj, cost.scanSeconds(w.TranscriptBytes))
	if err := wf.AddDependency("merge", "merge_not_joined"); err != nil {
		return nil, err
	}
	if err := wf.AddDependency("create_list_transcripts", "merge_not_joined"); err != nil {
		return nil, err
	}

	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return wf, nil
}

// BuildSerialDAX constructs the one-job workflow representing the original
// serial blast2cap3 (the paper's baseline).
func BuildSerialDAX(w Workload, cost CostModel) (*dax.Workflow, error) {
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	wf := dax.New("blast2cap3-serial")
	j := wf.NewJob("blast2cap3_serial", TrSerial).
		AddInput("transcripts.fasta", w.TranscriptBytes).
		AddInput("alignments.out", w.AlignmentBytes).
		AddOutput("final_assembly.fasta", w.TranscriptBytes/2)
	j.Args = []string{"transcripts.fasta", "alignments.out"}
	if len(w.Clusters) > 0 {
		j.SetProfile("pegasus", "runtime", strconv.FormatFloat(cost.SerialSeconds(w), 'f', 3, 64))
	}
	if err := wf.Validate(); err != nil {
		return nil, err
	}
	return wf, nil
}

// InstallBytes for the software stacks staged onto OSG nodes (paper §V.D:
// Python, Biopython and the CAP3 executable).
const (
	PythonInstallBytes    = 25 << 20
	BiopythonInstallBytes = 15 << 20
	CAP3InstallBytes      = 5 << 20
)

// PaperCatalogs builds the site, transformation and replica catalogs of
// the paper's two-platform world. Sandhills has every tool preinstalled
// and maintained; OSG nodes have nothing preinstalled, so every
// transformation carries its install payload (Fig. 3).
func PaperCatalogs(w Workload, sandhillsSlots, osgSlots int) (planner.Catalogs, error) {
	cats := planner.Catalogs{
		Sites:           catalog.NewSiteCatalog(),
		Transformations: catalog.NewTransformationCatalog(),
		Replicas:        catalog.NewReplicaCatalog(),
	}
	if err := cats.Sites.Add(&catalog.Site{
		Name: "sandhills", Arch: "x86_64", OS: "linux",
		Slots: sandhillsSlots, SpeedFactor: 1.0,
		SharedSoftware: true, StageInMBps: 200,
	}); err != nil {
		return cats, err
	}
	if err := cats.Sites.Add(&catalog.Site{
		Name: "osg", Arch: "x86_64", OS: "linux",
		Slots: osgSlots, SpeedFactor: 0.85, Heterogeneous: true,
		SharedSoftware: false, StageInMBps: 40,
	}); err != nil {
		return cats, err
	}
	// The cloud platform of the paper's future work (§VII): VM images
	// ship with the software stack baked in.
	if err := cats.Sites.Add(&catalog.Site{
		Name: "cloud", Arch: "x86_64", OS: "linux",
		Slots: 512, SpeedFactor: 1.08,
		SharedSoftware: true, StageInMBps: 80,
	}); err != nil {
		return cats, err
	}
	names := append(Transformations(), TrSerial)
	for _, name := range names {
		if err := cats.Transformations.Add(&catalog.Transformation{
			Name: name, Site: "sandhills", PFN: "/util/opt/blast2cap3/" + name, Installed: true,
		}); err != nil {
			return cats, err
		}
		if err := cats.Transformations.Add(&catalog.Transformation{
			Name: name, Site: "cloud", PFN: "/opt/image/blast2cap3/" + name, Installed: true,
		}); err != nil {
			return cats, err
		}
		install := int64(PythonInstallBytes + BiopythonInstallBytes)
		if name == TrRunCAP3 || name == TrSerial {
			install += CAP3InstallBytes
		}
		if err := cats.Transformations.Add(&catalog.Transformation{
			Name: name, Site: "osg", PFN: name + ".tar.gz", Installed: false, InstallBytes: install,
		}); err != nil {
			return cats, err
		}
	}
	for _, lfn := range []string{"transcripts.fasta", "alignments.out"} {
		if err := cats.Replicas.Add(lfn, catalog.Replica{Site: "local", PFN: "/work/data/" + lfn}); err != nil {
			return cats, err
		}
	}
	return cats, nil
}
