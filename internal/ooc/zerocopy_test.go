package ooc

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
	"hep/internal/stream"
)

// collectChunks drains a ChunkStream, copying every lent slab out (and
// releasing it) so the result can be compared after the slabs recycle.
func collectChunks(t *testing.T, cs graph.ChunkStream) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if err := cs.Chunks(func(edges []graph.Edge, release func()) bool {
		out = append(out, edges...)
		release()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameEdges(t *testing.T, label string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: edge %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// waitGoroutines polls until the goroutine count returns to base — the
// prompt-shutdown check for early-stopped prefetch readers.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestStreamChunksMatchEdges pins the lending reader against the edge list
// the file was written from: same edges, same order, across chunk sizes
// that do and do not divide the stream, pass after pass.
func TestStreamChunksMatchEdges(t *testing.T) {
	g := gen.BarabasiAlbert(800, 5, 3)
	path := writeGraphFile(t, g)
	for _, chunk := range []int{64, 100, 1 << 16} {
		s, err := Open(path, 0, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := graph.AsChunks(s); !ok {
			t.Fatal("ooc.Stream must advertise chunk lending")
		}
		got := collectChunks(t, s)
		sameEdges(t, "chunks vs file", got, g.E)
		// Restartable like Edges: a second lending pass sees the same stream.
		sameEdges(t, "second chunk pass", collectChunks(t, s), g.E)
	}
}

// TestStreamEarlyStopNoLeak is the prompt-release regression for both read
// paths: stopping Edges or Chunks mid-stream must shut the prefetch
// goroutine down (which closes the file) every time, leaving the stream
// reusable.
func TestStreamEarlyStopNoLeak(t *testing.T) {
	g := gen.BarabasiAlbert(600, 4, 1)
	s, err := Open(writeGraphFile(t, g), g.NumVertices(), 32)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		seen := 0
		if err := s.Edges(func(u, v graph.V) bool {
			seen++
			return seen < 5*(trial+1)
		}); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)

		slabs := 0
		if err := s.Chunks(func(edges []graph.Edge, release func()) bool {
			release()
			slabs++
			return slabs <= trial%3
		}); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	}
	// Both paths still deliver the full stream afterwards.
	sameEdges(t, "post-early-stop chunks", collectChunks(t, s), g.E)
}

// TestStreamChunksUnreleasedSlabDoesNotWedge pins the refcount independence
// of the prefetch pool: a consumer that sits on one slab (release deferred
// to the very end) must not deadlock the reader — the pool holds a third
// buffer precisely so prefetch never stalls on the consumer's slab.
func TestStreamChunksUnreleasedSlabDoesNotWedge(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 4, 9)
	s, err := Open(writeGraphFile(t, g), g.NumVertices(), 64)
	if err != nil {
		t.Fatal(err)
	}
	var held func()
	count := 0
	if err := s.Chunks(func(edges []graph.Edge, release func()) bool {
		count++
		if held == nil {
			//hep:xfer deliberately holds the first slab past the pass; released at the end of the test
			held = release
			return true
		}
		release()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if held == nil || count < 3 {
		t.Fatalf("pass yielded %d slabs", count)
	}
	held()
	held() // releasing twice must be harmless (released-once guard)
}

func TestMmapStreamRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(700, 4, 5)
	path := writeGraphFile(t, g)

	s, err := OpenMmap(path, 0) // discovery
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumVertices() != g.NumVertices() {
		t.Fatalf("discovered n = %d, want %d", s.NumVertices(), g.NumVertices())
	}
	if s.NumEdges() != g.NumEdges() {
		t.Fatalf("m = %d, want %d", s.NumEdges(), g.NumEdges())
	}
	var got []graph.Edge
	if err := s.Edges(func(u, v graph.V) bool {
		got = append(got, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "mmap Edges", got, g.E)
	sameEdges(t, "mmap Chunks", collectChunks(t, s), g.E)

	if s.Mapped() {
		// Mapped slabs alias the mapping: the Lent gauge must return to
		// zero once every slab is released (collectChunks released them all).
		if n := s.Lent(); n != 0 {
			t.Fatalf("%d slabs still lent after release", n)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.Edges(func(u, v graph.V) bool { return true }); err == nil {
		t.Fatal("Edges on a closed stream must error")
	}
	//hep:xfer callback never runs: the closed stream errors before lending a slab
	if err := s.Chunks(func(edges []graph.Edge, release func()) bool { return true }); err == nil {
		t.Fatal("Chunks on a closed stream must error")
	}
}

// TestMmapStreamChunkedReader forces the unmapped mode, where the stream is
// the chunked reader, and pins it against the file: same edges from Edges
// and Chunks, a slab size that does not divide the stream, and Close still
// shutting both down.
func TestMmapStreamChunkedReader(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 7)
	path := writeGraphFile(t, g)
	s := &MmapStream{file: Stream{path: path, n: g.NumVertices(), m: g.NumEdges(), chunkEdges: 96}}
	if s.Mapped() {
		t.Fatal("unmapped stream claims to be mapped")
	}
	var got []graph.Edge
	if err := s.Edges(func(u, v graph.V) bool {
		got = append(got, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sameEdges(t, "chunked Edges", got, g.E)
	sameEdges(t, "chunked Chunks", collectChunks(t, s), g.E)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Edges(func(u, v graph.V) bool { return true }); err == nil {
		t.Fatal("Edges on a closed stream must error")
	}
}

func TestMmapStreamOpenErrors(t *testing.T) {
	if _, err := OpenMmap(filepath.Join(t.TempDir(), "missing.bin"), 0); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte{1, 2, 3, 4, 5}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(bad, 0); err == nil {
		t.Fatal("size not a multiple of 8 must error")
	}
}

func TestMmapStreamEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenMmap(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.NumEdges() != 0 || s.NumVertices() != 0 {
		t.Fatalf("empty file: n=%d m=%d", s.NumVertices(), s.NumEdges())
	}
	if err := s.Edges(func(u, v graph.V) bool { t.Fatal("edge from empty file"); return false }); err != nil {
		t.Fatal(err)
	}
	//hep:xfer callback never runs: an empty file lends no slabs (t.Fatal if it ever does)
	if err := s.Chunks(func(edges []graph.Edge, release func()) bool { t.Fatal("chunk from empty file"); return false }); err != nil {
		t.Fatal(err)
	}
}

// TestVarintH2HEarlyStopResumable pins that an early-stopped spill-run read
// leaves the store appendable and fully re-readable (the read cursor seeks
// back to the end either way).
func TestVarintH2HEarlyStopResumable(t *testing.T) {
	s, err := NewVarintH2H(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Append(graph.V(i), graph.V(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	if err := s.Edges(func(u, v graph.V) bool { seen++; return seen < 10 }); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(200, 201); err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := s.Edges(func(u, v graph.V) bool { total++; return true }); err != nil {
		t.Fatal(err)
	}
	if total != 101 {
		t.Fatalf("full pass after early stop saw %d edges, want 101", total)
	}
}

// edgesView hides a stream's Chunks method so the consumer is forced onto
// the per-edge path.
type edgesView struct{ s graph.EdgeStream }

func (e edgesView) NumVertices() int                          { return e.s.NumVertices() }
func (e edgesView) NumEdges() int64                           { return e.s.NumEdges() }
func (e edgesView) Edges(yield func(u, v graph.V) bool) error { return e.s.Edges(yield) }

// TestParallelHDRFOverChunkedFile runs HDRF placement end to end over a
// lending file stream at Workers 2 and 4, which placement ignores: slabs
// from the prefetch pool are sliced into batches with no copying, every
// edge lands exactly once, and the loads and replica counts equal the
// one-worker run's on the same file.
func TestParallelHDRFOverChunkedFile(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	path := writeGraphFile(t, g)
	const k = 32

	s, err := Open(path, g.NumVertices(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	deg, m, err := graph.Degrees(s)
	if err != nil {
		t.Fatal(err)
	}
	seq := part.NewResult(s.NumVertices(), k)
	if err := stream.RunHDRFParallel(s, seq, deg, stream.DefaultLambda, 1.05, m, shard.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		o := obs.New()
		c := o.Counters()
		res := part.NewResult(s.NumVertices(), k)
		err := stream.RunHDRFParallel(s, res, deg, stream.DefaultLambda, 1.05, m,
			shard.Options{Workers: workers, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		if res.M != m {
			t.Fatalf("W=%d: assigned %d of %d edges", workers, res.M, m)
		}
		if err := res.Validate(); err != nil {
			t.Fatal(err)
		}
		if n := c.Total(obs.CtrChunksLent); n == 0 {
			t.Errorf("W=%d: file stream lent no chunks to the batch loop", workers)
		}
		if n := c.Total(obs.CtrBytesCopiedDispatch); n != 0 {
			t.Errorf("W=%d: bytes_copied_dispatch = %d over a lending stream, want 0", workers, n)
		}
		for p := 0; p < k; p++ {
			if res.Counts[p] != seq.Counts[p] || res.Reps.VertexCount(p) != seq.Reps.VertexCount(p) {
				t.Fatalf("W=%d: partition %d holds %d edges and %d vertices, one worker %d and %d", workers, p,
					res.Counts[p], res.Reps.VertexCount(p), seq.Counts[p], seq.Reps.VertexCount(p))
			}
		}
	}
}

// TestBufferedChunkFillBitIdentical pins the Buffered bulk buffer fill: the
// chunk-lending fill path must produce exactly the assignment sequence of
// the per-edge path — same buffer cut points, same expansion, same order.
func TestBufferedChunkFillBitIdentical(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	path := writeGraphFile(t, g)

	run := func(src graph.EdgeStream) []part.TaggedEdge {
		b := &Buffered{BufferEdges: 5000, Workers: 1}
		col := &part.Collect{}
		b.Sink = col
		res, err := b.Partition(src, 16)
		if err != nil {
			t.Fatal(err)
		}
		if res.M != g.NumEdges() {
			t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
		}
		return col.Edges
	}

	s, err := Open(path, g.NumVertices(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	lent := run(s)
	copied := run(edgesView{s: s})
	if len(lent) != len(copied) {
		t.Fatalf("lending fill delivered %d edges, per-edge fill %d", len(lent), len(copied))
	}
	for i := range lent {
		if lent[i] != copied[i] {
			t.Fatalf("assignment %d: lending %v, per-edge %v", i, lent[i], copied[i])
		}
	}
}
