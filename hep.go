// Package hep is the public API of the Hybrid Edge Partitioner library, a
// from-scratch Go reproduction of "Hybrid Edge Partitioner: Partitioning
// Large Power-Law Graphs under Memory Constraints" (Mayer & Jacobsen,
// SIGMOD 2021).
//
// The package partitions the edge set of an undirected graph into k
// balanced parts while minimizing the replication factor (the average
// number of parts each vertex appears in). The flagship algorithm is HEP:
// edges incident to at least one low-degree vertex are partitioned in
// memory by NE++, a memory-efficient neighborhood-expansion algorithm over
// a pruned CSR; edges between two high-degree vertices are partitioned by
// informed stateful streaming (HDRF scoring seeded with NE++'s replication
// state). The degree threshold factor τ (Config.Tau) trades memory for
// quality.
//
// Quick start:
//
//	g := hep.Dataset("OK", 1.0)                       // or hep.NewGraph / hep.ReadBinaryFile
//	res, err := hep.Partition(g, hep.Config{Algorithm: hep.AlgoHEP, K: 32, Tau: 10})
//	fmt.Println(res.ReplicationFactor(), res.Balance())
//
// Every baseline the paper evaluates is available through the same Config
// (NE, SNE, DNE, METIS-style multilevel, HDRF, DBH, Greedy, Grid, ADWISE,
// Random), and internal/expt regenerates every table and figure of the
// paper's evaluation.
//
// For graphs larger than RAM, AlgoBuffered runs the out-of-core engine
// (internal/ooc): the chunked reader of the binary edge file feeds a
// bounded B-edge buffer, and each batch is placed whole by neighborhood
// expansion seeded with the global replica state — resident memory is
// O(|V|) vertex state plus the configured buffer, never the edge list.
// PartitionFile composes the whole recipe (open, discover, pick τ or buffer
// from Config.MemBudget, spill E_h2h to a compressed run file, partition)
// in one call:
//
//	res, err := hep.PartitionFile("graph.bin", hep.Config{
//		Algorithm: hep.AlgoBuffered, K: 32, MemBudget: 512 << 20,
//	})
package hep

import (
	"errors"
	"fmt"
	"math"

	"hep/internal/core"
	"hep/internal/dne"
	"hep/internal/edgeio"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/hybrid"
	"hep/internal/memmodel"
	"hep/internal/metrics"
	"hep/internal/mlp"
	"hep/internal/ne"
	"hep/internal/obs"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/refine"
	"hep/internal/restream"
	"hep/internal/stream"
)

// Re-exported core types. Internal packages implement them; the aliases
// make them part of the public API.
type (
	// Edge is an undirected edge with 32-bit vertex ids.
	Edge = graph.Edge
	// EdgeStream is a restartable source of edges.
	EdgeStream = graph.EdgeStream
	// MemGraph is an in-memory edge list implementing EdgeStream.
	MemGraph = graph.MemGraph
	// Result is a k-way partitioning: per-partition edge counts and a
	// vertex-major replica table (one partition mask per vertex), with
	// quality metrics as methods.
	Result = part.Result
	// Algorithm is the common partitioner interface.
	Algorithm = part.Algorithm
	// Sink observes every edge assignment.
	Sink = part.Sink
	// Summary is the standard metric row (RF, balance, vertex balance).
	Summary = metrics.Summary
	// Obs is the runtime observability hook (internal/obs): phase spans,
	// hot-path counters, latency/size histograms, a quality time series and
	// machine-readable trace reports. A nil *Obs disables every
	// instrumentation point at zero cost.
	Obs = obs.Obs
	// ObsOptions parameterizes NewObsWithOptions: span cap, quality-series
	// ring capacity and sampling stride.
	ObsOptions = obs.Options
)

// NewObs returns an observability hook with default caps. Pass it via
// Config.Obs, then read the trace with Obs.Report or Obs.WriteJSONFile.
// The argument is ignored: every run adds to one block of counters. It is
// kept because the benchmark (bench/) passes a worker count.
func NewObs(workers int) *Obs { return obs.New() }

// NewObsWithOptions is NewObs with the sampling and capacity knobs exposed:
// MaxSpans bounds the span list (excess spans are dropped and counted),
// SeriesCap bounds the quality-series ring (oldest samples evicted), and
// SampleEvery thins quality sampling to every Nth boundary (negative
// disables the series entirely). Zero values take the defaults.
func NewObsWithOptions(opts ObsOptions) *Obs { return obs.NewWithOptions(opts) }

// Algorithm names accepted by Config.Algorithm.
const (
	AlgoHEP          = "hep"
	AlgoNEPP         = "ne++" // pure NE++ (HEP with τ=∞)
	AlgoNE           = "ne"
	AlgoSNE          = "sne"
	AlgoDNE          = "dne"
	AlgoMETIS        = "metis"
	AlgoHDRF         = "hdrf"
	AlgoDBH          = "dbh"
	AlgoGreedy       = "greedy"
	AlgoGrid         = "grid"
	AlgoADWISE       = "adwise"
	AlgoRandom       = "random"
	AlgoSimpleHybrid = "simple-hybrid"
	AlgoRestream     = "rehdrf"
	AlgoBuffered     = "buffered" // out-of-core buffered streaming (internal/ooc)
)

// Refinement modes accepted by Config.Refine (internal/refine post-pass).
const (
	// RefineMoves runs parallel boundary-vertex move rounds on the
	// algorithm's own k-way output: RF never gets worse, balance never
	// exceeds the (1+ε)·m/k guard.
	RefineMoves = refine.ModeMoves
	// RefineSplitMerge over-partitions into 2·k buckets, greedily merges
	// back to k by max-overlap pairing, then runs the move rounds.
	RefineSplitMerge = refine.ModeSplitMerge
)

// Config selects and parameterizes a partitioner.
type Config struct {
	// Algorithm is one of the Algo* constants (default AlgoHEP).
	Algorithm string
	// K is the number of partitions (required, ≥ 1).
	K int
	// Tau is HEP's degree threshold factor τ; 0 or +Inf disables pruning
	// (pure NE++). The paper evaluates τ ∈ {100, 10, 1}.
	Tau float64
	// Alpha is the edge balance bound α ≥ 1 where applicable; values below
	// 1 count as 1, and NaN is rejected.
	Alpha float64
	// Lambda is the HDRF balance weight, ≥ 0 (0 = default 1.1).
	Lambda float64
	// Seed makes randomized algorithms deterministic. The two parallel
	// passes, DNE at Workers 0 or > 1 and refinement at RefineWorkers 0 or
	// > 1, also depend on worker interleaving; every other run is the same
	// at every worker count.
	Seed int64
	// Workers is DNE's number of concurrent expanders (0 = DNE's own
	// default). Every other placement pass runs one worker, so its output
	// does not depend on Workers, with one exception: AlgoHDRF streams
	// partial degrees at Workers 1 and takes the exact-degree pre-pass at
	// every other value, 0 included, on any host. AlgoHEP, AlgoNEPP,
	// AlgoRestream and AlgoBuffered accept any Workers. Algorithms with no
	// parallel path (order-sensitive streaming like ADWISE, the in-memory
	// partitioners) reject Workers > 1 instead of silently running
	// sequentially.
	Workers int
	// Window sizes ADWISE's edge buffer.
	Window int
	// Passes is the number of re-streaming passes for AlgoRestream.
	Passes int
	// Buffer is AlgoBuffered's batch size in edges (0 = the ooc default;
	// PartitionFile derives it from MemBudget when that is set).
	Buffer int
	// MemBudget, if > 0, makes PartitionFile bound resident memory: it
	// picks the largest τ whose §4.2 footprint fits (AlgoHEP) or sizes the
	// edge buffer to fit (AlgoBuffered).
	MemBudget int64
	// Refine, if non-empty, runs the local-search refinement post-pass
	// (internal/refine) after the algorithm finalizes its Result:
	// RefineMoves or RefineSplitMerge. The pass composes with every
	// algorithm in RefinableAlgorithms; other algorithms are rejected by
	// New/FitBudget. With a Sink attached, the sink observes the refined
	// assignment (each edge exactly once), not the intermediate one.
	Refine string
	// RefineRounds bounds the refinement move rounds (0 = the refine
	// default, 4; rounds stop early once no positive-gain move remains).
	RefineRounds int
	// RefineWorkers is the refinement pass's own parallelism, independent
	// of Workers (refinement is parallel-safe even for the sequential
	// algorithms): 0 resolves to GOMAXPROCS, 1 forces the deterministic
	// sequential path.
	RefineWorkers int
	// Sink, if set, receives every edge assignment.
	Sink Sink
	// Obs, if set, receives runtime observability from the algorithms that
	// are instrumented (AlgoHEP, AlgoNEPP, AlgoHDRF, AlgoRestream,
	// AlgoBuffered): phase spans with wall time and edge throughput, and
	// hot-path counters folded at batch boundaries. nil disables every
	// instrumentation point. Construct with NewObs.
	Obs *Obs
}

// ParallelAlgorithms lists the Config.Algorithm values that accept
// Workers > 1. DNE runs that many concurrent expanders; HDRF takes its
// exact-degree pre-pass, as it does at Workers 0, and places with one
// worker; HEP, NE++, re-HDRF and Buffered run their one sequential path.
func ParallelAlgorithms() []string {
	return []string{AlgoHEP, AlgoNEPP, AlgoHDRF, AlgoRestream, AlgoBuffered, AlgoDNE}
}

// RefinableAlgorithms lists the Config.Algorithm values that accept
// Config.Refine. The refinement post-pass captures the per-edge assignment
// through the algorithm's sink and replays it against the finalized
// Result's live replica table, so it is gated to the algorithms whose
// capture → refine → replay path the refined conformance matrix
// (internal/parttest) pins; the rest are rejected up front — the same
// fail-fast contract as the Workers > 1 gate — instead of running an
// unvalidated combination that would at worst surface as a dead-table
// panic inside the post-pass.
func RefinableAlgorithms() []string {
	return []string{
		AlgoHEP, AlgoNEPP, AlgoNE, AlgoSNE, AlgoMETIS, AlgoHDRF, AlgoDBH,
		AlgoGreedy, AlgoGrid, AlgoRandom, AlgoSimpleHybrid, AlgoRestream,
		AlgoBuffered,
	}
}

// checkRefine validates the Config.Refine knobs against the selected
// algorithm; name must already be defaulted.
func checkRefine(name string, cfg Config) error {
	if cfg.Refine == "" {
		return nil
	}
	if !refine.ValidMode(cfg.Refine) {
		return fmt.Errorf("hep: unknown refine mode %q (want %q or %q)", cfg.Refine, RefineMoves, RefineSplitMerge)
	}
	if cfg.RefineWorkers < 0 {
		return fmt.Errorf("hep: RefineWorkers must be ≥ 0, got %d", cfg.RefineWorkers)
	}
	if cfg.RefineRounds < 0 {
		return fmt.Errorf("hep: RefineRounds must be ≥ 0, got %d", cfg.RefineRounds)
	}
	for _, r := range RefinableAlgorithms() {
		if name == r {
			return nil
		}
	}
	return fmt.Errorf("hep: algorithm %q is not covered by the refinement post-pass; Refine must be empty — refinable algorithms: %v",
		name, RefinableAlgorithms())
}

// New returns the partitioner selected by cfg.
func New(cfg Config) (Algorithm, error) {
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("hep: Workers must be ≥ 0, got %d", cfg.Workers)
	}
	// The HDRF scorer relies on a balance term that never rises with load.
	if !(cfg.Lambda >= 0) {
		return nil, fmt.Errorf("hep: Lambda must be ≥ 0, got %v", cfg.Lambda)
	}
	if math.IsNaN(cfg.Alpha) {
		return nil, errors.New("hep: Alpha must not be NaN")
	}
	name := cfg.Algorithm
	if name == "" {
		name = AlgoHEP
	}
	var a Algorithm
	switch name {
	case AlgoHEP:
		a = &core.HEP{Tau: cfg.Tau, Alpha: cfg.Alpha, Lambda: cfg.Lambda, Seed: cfg.Seed, Obs: cfg.Obs}
	case AlgoNEPP:
		a = &core.HEP{Tau: math.Inf(1), Alpha: cfg.Alpha, Lambda: cfg.Lambda, Obs: cfg.Obs}
	case AlgoNE:
		a = &ne.NE{Seed: cfg.Seed}
	case AlgoSNE:
		a = &ne.SNE{}
	case AlgoDNE:
		a = &dne.DNE{Workers: cfg.Workers, Seed: cfg.Seed}
	case AlgoMETIS:
		a = &mlp.MLP{Seed: cfg.Seed}
	case AlgoHDRF:
		a = &stream.HDRF{Lambda: cfg.Lambda, Alpha: cfg.Alpha, Obs: cfg.Obs,
			ExactDegrees: cfg.Workers != 1}
	case AlgoDBH:
		a = &stream.DBH{}
	case AlgoGreedy:
		a = &stream.Greedy{Alpha: cfg.Alpha}
	case AlgoGrid:
		a = &stream.Grid{}
	case AlgoADWISE:
		a = &stream.ADWISE{Window: cfg.Window, Lambda: cfg.Lambda, Alpha: cfg.Alpha}
	case AlgoRandom:
		a = &stream.Random{Seed: cfg.Seed, Alpha: cfg.Alpha}
	case AlgoSimpleHybrid:
		tau := cfg.Tau
		if tau == 0 {
			tau = 10
		}
		a = &hybrid.Simple{Tau: tau, Seed: cfg.Seed}
	case AlgoRestream:
		a = &restream.Restream{Passes: cfg.Passes, Lambda: cfg.Lambda, Alpha: cfg.Alpha, Obs: cfg.Obs}
	case AlgoBuffered:
		a = &ooc.Buffered{BufferEdges: cfg.Buffer, Alpha: cfg.Alpha, Obs: cfg.Obs}
	default:
		return nil, fmt.Errorf("hep: unknown algorithm %q", name)
	}
	if cfg.Workers > 1 {
		ok := false
		for _, p := range ParallelAlgorithms() {
			if name == p {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("hep: algorithm %q has no parallel path (order-sensitive or in-memory); Workers must be ≤ 1, got %d — parallel algorithms: %v",
				name, cfg.Workers, ParallelAlgorithms())
		}
	}
	if err := checkRefine(name, cfg); err != nil {
		return nil, err
	}
	if cfg.Refine != "" {
		a = refine.Wrap(a, refine.Options{
			Mode:    cfg.Refine,
			Rounds:  cfg.RefineRounds,
			Workers: cfg.RefineWorkers,
			Obs:     cfg.Obs,
		})
	}
	if cfg.Sink != nil {
		ss, ok := a.(part.SinkSetter)
		if !ok {
			return nil, fmt.Errorf("hep: algorithm %q does not accept an assignment sink", name)
		}
		ss.SetSink(cfg.Sink)
	}
	return a, nil
}

// Partition runs the configured partitioner over src. A non-zero
// Config.MemBudget routes through PartitionStream — the §4.2 footprint
// model behind the budget assumes E_h2h is spilled to disk, so a budgeted
// HEP run must get the on-disk spill store, never the in-memory default.
func Partition(src EdgeStream, cfg Config) (*Result, error) {
	if cfg.MemBudget > 0 {
		return PartitionStream(src, cfg)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("hep: K must be ≥ 1, got %d", cfg.K)
	}
	a, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return a.Partition(src, cfg.K)
}

// Algorithms lists the accepted Config.Algorithm values.
func Algorithms() []string {
	return []string{
		AlgoHEP, AlgoNEPP, AlgoNE, AlgoSNE, AlgoDNE, AlgoMETIS,
		AlgoHDRF, AlgoDBH, AlgoGreedy, AlgoGrid, AlgoADWISE, AlgoRandom,
		AlgoSimpleHybrid, AlgoRestream, AlgoBuffered,
	}
}

// NewGraph wraps an edge list (n inferred if 0) as an EdgeStream.
func NewGraph(n int, edges []Edge) *MemGraph {
	if n <= 0 {
		return graph.FromEdges(edges)
	}
	return graph.NewMemGraph(n, edges)
}

// Dataset builds the named synthetic stand-in for one of the paper's
// evaluation graphs (Table 3: LJ, OK, BR, WI, IT, TW, FR, UK, GSH, WDC) at
// the given scale factor. It panics on unknown names; see DatasetNames.
func Dataset(name string, scale float64) *MemGraph {
	return gen.MustDataset(name).Build(scale)
}

// DatasetNames lists the dataset registry.
func DatasetNames() []string { return gen.DatasetNames() }

// ReadBinaryFile loads a whole binary edge list (consecutive little-endian
// uint32 pairs, the paper's input format) into one exactly-sized slice,
// reading the records straight into it as the chunked reader does. A size
// that is not a multiple of 8 is an error.
func ReadBinaryFile(path string) ([]Edge, error) { return ooc.ReadFile(path) }

// WriteBinaryFile writes a binary edge list.
func WriteBinaryFile(path string, edges []Edge) error {
	return edgeio.WriteBinaryFile(path, edges)
}

// OpenBinaryFile opens a binary edge list as a streaming EdgeStream
// without loading it into memory: the chunked reader of OpenChunked, at the
// default slab size. n ≤ 0 discovers the vertex count.
func OpenBinaryFile(path string, n int) (EdgeStream, error) {
	return ooc.Open(path, max(n, 0), 0)
}

// OpenChunked opens a binary edge list as the chunked reader, the
// out-of-core engine's one reader of the format: on every pass a read-ahead
// goroutine reads the file straight into []Edge slabs of chunkEdges edges
// (0 selects 32Ki, 256 KiB), allocated on demand up to three per pass, and
// lends them to the consumer while it reads the next. n may be 0 to
// discover the vertex count (or < 0 to skip discovery).
func OpenChunked(path string, n, chunkEdges int) (EdgeStream, error) {
	return ooc.Open(path, n, chunkEdges)
}

// MmapStream is a memory-mapped binary edge list (see OpenMmap). It holds
// OS resources and must be Closed after use.
type MmapStream = ooc.MmapStream

// OpenMmap opens a binary edge list as a memory-mapped EdgeStream: the
// kernel pages edge bytes straight into the process, and on little-endian
// hosts the partitioners' ingest borrows slices of the mapping itself —
// zero read syscalls, zero decode, zero copy on the dispatch path. Where
// the file cannot be mapped (no mmap, the nommap build tag, a big-endian
// host) the stream is the chunked reader of OpenChunked instead.
// n may be 0 to discover the vertex count (or < 0 to skip discovery).
// Unlike the other Open* streams the result must be Closed.
func OpenMmap(path string, n int) (*MmapStream, error) {
	return ooc.OpenMmap(path, n)
}

// tauCandidates is the §4.4 sweep PartitionFile and cmd/hep-partition use
// when picking τ under a memory budget.
var tauCandidates = []float64{100, 50, 20, 10, 5, 2, 1}

// FitBudget resolves Config.MemBudget into concrete partitioner knobs and
// returns the resolved Config (with MemBudget cleared): AlgoHEP gets the
// largest candidate τ whose §4.2 footprint fits (overriding any explicit
// Tau — the budget is the contract); AlgoBuffered gets its buffer sized so
// batch-local state fits, clamping an explicit Buffer that would exceed the
// budget. Any other algorithm is rejected, because a budget would be
// silently ignored. A zero MemBudget returns cfg unchanged.
func FitBudget(src EdgeStream, cfg Config) (Config, error) {
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("hep: Workers must be ≥ 0, got %d", cfg.Workers)
	}
	name := cfg.Algorithm
	if name == "" {
		name = AlgoHEP
	}
	// Refine is validated even without a budget: FitBudget is the front
	// door of PartitionFile/PartitionStream, and a bad combination must
	// fail here, not as a dead-table panic after a long run.
	if err := checkRefine(name, cfg); err != nil {
		return cfg, err
	}
	if cfg.MemBudget <= 0 {
		return cfg, nil
	}
	switch name {
	case AlgoHEP:
		tau, ok, err := ChooseTau(src, cfg.K, tauCandidates, cfg.MemBudget)
		if err != nil {
			return cfg, err
		}
		if !ok {
			return cfg, fmt.Errorf("hep: no candidate τ fits %d bytes; use AlgoBuffered for tighter budgets", cfg.MemBudget)
		}
		cfg.Tau = tau
	case AlgoBuffered:
		// Buffered runs one sequential path, so the same budget buys the
		// same buffer whatever Workers is.
		fit := ooc.BufferForBudget(cfg.MemBudget)
		if fit < 1 {
			return cfg, fmt.Errorf("hep: budget %d bytes below one buffered edge (%d bytes)",
				cfg.MemBudget, ooc.BytesPerBufferedEdge)
		}
		if cfg.Buffer == 0 || cfg.Buffer > fit {
			cfg.Buffer = fit
		}
	default:
		return cfg, fmt.Errorf("hep: MemBudget is only supported with %s or %s, not %q", AlgoHEP, AlgoBuffered, name)
	}
	cfg.MemBudget = 0
	return cfg, nil
}

// PartitionFile partitions an on-disk binary edge list without ever
// materializing it: the file is opened with the chunked reader (OpenChunked)
// and fed to the configured partitioner. When Config.MemBudget is set, the
// partitioner is fit to the budget first — AlgoHEP picks the largest τ whose
// §4.2 footprint fits (ChooseTau) and spills E_h2h to a compressed on-disk
// run instead of RAM; AlgoBuffered sizes its edge buffer so batch-local
// state fits; any other algorithm is rejected (a budget would be silently
// ignored). This is the paper's §4.4 recipe composed with the out-of-core
// engine in a single call.
func PartitionFile(path string, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("hep: K must be ≥ 1, got %d", cfg.K)
	}
	name := cfg.Algorithm
	if name == "" {
		name = AlgoHEP
	}
	// Buffered runs its own discovery scan for |V| and |E|; only the other
	// algorithms need the up-front scan for the vertex count.
	discoverN := 0
	if name == AlgoBuffered {
		discoverN = -1
	}
	src, err := ooc.Open(path, discoverN, 0)
	if err != nil {
		return nil, err
	}
	return PartitionStream(src, cfg)
}

// PartitionStream is PartitionFile over an already-open stream: it resolves
// Config.MemBudget (FitBudget — a no-op if the caller already resolved it),
// sends HEP's E_h2h spill to a compressed on-disk run so the streaming
// phase's input stays out of the resident set, and partitions. Callers that
// need the resolved knobs (the chosen τ, the sized buffer) call FitBudget
// themselves and pass the resolved Config here without paying a second
// discovery pass.
func PartitionStream(src EdgeStream, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("hep: K must be ≥ 1, got %d", cfg.K)
	}
	cfg, err := FitBudget(src, cfg)
	if err != nil {
		return nil, err
	}
	a, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// A refined HEP still needs the on-disk spill store on its inner run.
	inner := a
	if rw, ok := a.(*refine.Refined); ok {
		inner = rw.Inner
	}
	if h, ok := inner.(*core.HEP); ok {
		store, err := ooc.NewVarintH2H("")
		if err != nil {
			return nil, err
		}
		defer store.Close()
		h.H2HStore = store
		res, err := a.Partition(src, cfg.K)
		// The spill store's compressed size is only known once the build has
		// written it; fold it after the run so the trace reports spill I/O.
		cfg.Obs.Counters().Add(obs.CtrSpillBytes, store.Bytes())
		return res, err
	}
	return a.Partition(src, cfg.K)
}

// Summarize computes the standard quality metrics of a result.
func Summarize(name string, res *Result) Summary { return metrics.Summarize(name, res) }

// ChooseTau returns the largest τ among candidates whose HEP footprint
// (paper §4.2 model with exact column-array sizes) fits budgetBytes — the
// paper's §4.4 recipe for partitioning under a memory bound. The boolean
// reports whether any candidate fits.
func ChooseTau(src EdgeStream, k int, candidates []float64, budgetBytes int64) (float64, bool, error) {
	return memmodel.ChooseTau(src, k, candidates, budgetBytes)
}

// EstimateMemory evaluates the §4.2 memory model for one τ given the
// graph's degree sequence.
func EstimateMemory(src EdgeStream, k int, tau float64) (int64, error) {
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return 0, err
	}
	return memmodel.Estimate(deg, m, k, tau).Total(), nil
}
