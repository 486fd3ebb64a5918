// Package obs is the runtime observability layer of the partitioning
// pipeline: phase spans (a lightweight tracer recording wall time, work
// volume and memory snapshots per pipeline stage), hot-path counters (one
// block of atomics added at batch boundaries), a machine-readable
// trace-JSON encoder, a human progress reporter, and an expvar/pprof debug
// listener.
//
// The package has two design rules. First, disabled must be free: a nil
// *Obs (and a nil *Counters) is the off switch — every method is a nil-safe
// no-op, Span returns a nil *Span whose methods are also no-ops, and the
// hot path allocates nothing (pinned by testing.AllocsPerRun). Algorithms
// therefore thread the hook unconditionally and never branch on "is
// observability on". Second, observation must stay off the per-edge path:
// counters are added at batch/region boundaries, spans bracket whole
// pipeline stages, and memory snapshots happen only at span ends.
//
// Everything here is stdlib-only so every internal package can depend on it
// without cycles.
package obs

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// DefaultMaxSpans bounds the stored span list so a pathological
// configuration (a tiny out-of-core buffer producing millions of batches)
// cannot turn the trace into the memory problem it is measuring. Spans past
// the cap are dropped and counted in the report's dropped_spans field; the
// cap is configurable through Options.MaxSpans.
const DefaultMaxSpans = 8192

// DefaultSeriesCap bounds the quality-sample ring (see RecordSample); older
// samples are evicted FIFO past the cap and counted in series_evicted.
const DefaultSeriesCap = 1024

// Options configures an observability hub's caps. The zero value of every
// field selects the default.
type Options struct {
	// MaxSpans caps the stored span list (0 = DefaultMaxSpans).
	MaxSpans int
	// SeriesCap caps the quality-sample ring (0 = DefaultSeriesCap,
	// negative disables sampling entirely — SampleTick always says no).
	SeriesCap int
	// SampleEvery thins the quality series: only every SampleEvery-th
	// SampleTick asks for a sample (0 or 1 = every boundary, negative
	// disables). Raising it bounds sampling overhead on tiny-batch runs.
	SampleEvery int
}

// SpanRecord is one completed (or open) phase span as stored by the tracer
// and emitted by the trace-JSON encoder.
type SpanRecord struct {
	// Name is the phase name (e.g. "degree-pass", "csr-build", "h2h-stream").
	Name string `json:"name"`
	// Parent is the index of the enclosing span, -1 for a root phase.
	Parent int `json:"parent"`
	// Depth is the nesting depth (0 for a root phase).
	Depth int `json:"depth"`
	// StartNs/EndNs are nanoseconds since the trace epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// Edges is the number of edges the phase processed (0 if not set).
	Edges int64 `json:"edges,omitempty"`
	// Bytes is the number of bytes the phase processed (0 if not set).
	Bytes int64 `json:"bytes,omitempty"`
	// AllocBytes is the total heap allocation during the span (cumulative
	// allocation delta, not live heap).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	// HeapBytes is the live heap at span end.
	HeapBytes int64 `json:"heap_bytes,omitempty"`
	// PeakRSSBytes is the process peak resident set (VmHWM) at span end, 0
	// where the platform does not expose it.
	PeakRSSBytes int64 `json:"peak_rss_bytes,omitempty"`
}

// Obs is the per-run observability hub: the span tracer plus the hot-path
// counters, with optional progress notification. The zero value is not
// used; construct with New. A nil *Obs is the disabled form — every method
// no-ops and Counters() returns a nil *Counters whose methods also no-op.
type Obs struct {
	mu      sync.Mutex
	c       *Counters
	t0      time.Time
	spans   []SpanRecord
	stack   []int // indices of open spans, innermost last
	open    []bool
	dropped int64
	meta    map[string]any
	repro   map[string]string
	notify  func(SpanEvent)

	maxSpans int

	// Quality-sample ring (see series.go). samples is chronological until
	// the first eviction, then a ring with head marking the oldest slot.
	samples       []QualitySample
	samplesHead   int
	samplesCap    int
	sampleEvery   int
	sampleSeq     int64
	seriesEvicted int64

	totalEdges int64

	// Injectable time/memory sources: tests pin them for deterministic
	// golden traces.
	now func() time.Time
	mem func() (heapAlloc, totalAlloc uint64)
	rss func() int64
}

// SpanEvent is a phase transition handed to the progress notifier.
type SpanEvent struct {
	// Name is the phase name.
	Name string
	// End is false at span start, true at span end.
	End bool
	// Depth is the nesting depth.
	Depth int
	// WallNs is the span duration (end events only).
	WallNs int64
	// Edges is the span's recorded edge volume (end events only).
	Edges int64
}

// New returns an enabled observability hub with default caps.
func New() *Obs {
	return NewWithOptions(Options{})
}

// NewWithOptions returns an enabled observability hub with explicit caps.
func NewWithOptions(opts Options) *Obs {
	o := &Obs{
		c:     NewCounters(),
		meta:  make(map[string]any),
		repro: ReproMeta(),
		now:   time.Now,
		mem: func() (uint64, uint64) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc, ms.TotalAlloc
		},
		rss: readPeakRSS,
	}
	o.maxSpans = opts.MaxSpans
	if o.maxSpans <= 0 {
		o.maxSpans = DefaultMaxSpans
	}
	switch {
	case opts.SeriesCap > 0:
		o.samplesCap = opts.SeriesCap
	case opts.SeriesCap == 0:
		o.samplesCap = DefaultSeriesCap
	}
	o.sampleEvery = 1
	if opts.SampleEvery > 1 {
		o.sampleEvery = opts.SampleEvery
	}
	if opts.SampleEvery < 0 || opts.SeriesCap < 0 {
		// Sampling disabled: no ticks and no ring.
		o.sampleEvery = 0
		o.samplesCap = 0
	}
	o.t0 = o.now()
	return o
}

// Counters returns the hot-path counters (nil for a nil Obs — still
// safe to use, every Counters method is nil-safe).
func (o *Obs) Counters() *Counters {
	if o == nil {
		return nil
	}
	return o.c
}

// SetMeta records one run-metadata key (algorithm, k, workers, input path…)
// for the trace report. Nil-safe.
func (o *Obs) SetMeta(key string, value any) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.meta[key] = value
	o.mu.Unlock()
}

// SetTotalEdges declares the total edge volume of the run, giving the
// progress reporter an ETA denominator. Nil-safe.
func (o *Obs) SetTotalEdges(m int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.totalEdges = m
	o.mu.Unlock()
}

// SetNotify installs a span-transition listener (the progress reporter).
// Nil-safe.
func (o *Obs) SetNotify(f func(SpanEvent)) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.notify = f
	o.mu.Unlock()
}

// Span is a handle on one open phase span. A nil *Span (from a nil Obs or a
// span dropped by the cap) is valid: every method no-ops.
type Span struct {
	o   *Obs
	idx int
}

// Span opens a phase span nested under the innermost open span. Phases are
// opened and closed by the orchestrating goroutine (parallel work runs
// *inside* a span); the tracer is mutex-guarded so misuse cannot race, but
// concurrent sibling spans are not a supported shape.
func (o *Obs) Span(name string) *Span {
	if o == nil {
		return nil
	}
	// AllocBytes stores the cumulative-allocation *offset* at start; End
	// converts it into the span's allocation delta.
	_, startAlloc := o.mem()
	o.mu.Lock()
	if len(o.spans) >= o.maxSpans {
		o.dropped++
		o.mu.Unlock()
		return nil
	}
	parent, depth := -1, 0
	if n := len(o.stack); n > 0 {
		parent = o.stack[n-1]
		depth = o.spans[parent].Depth + 1
	}
	idx := len(o.spans)
	o.spans = append(o.spans, SpanRecord{
		Name:       name,
		Parent:     parent,
		Depth:      depth,
		StartNs:    o.now().Sub(o.t0).Nanoseconds(),
		EndNs:      -1,
		AllocBytes: int64(startAlloc),
	})
	o.open = append(o.open, true)
	o.stack = append(o.stack, idx)
	notify := o.notify
	o.mu.Unlock()
	if notify != nil {
		notify(SpanEvent{Name: name, Depth: depth})
	}
	return &Span{o: o, idx: idx}
}

// Edges records the phase's edge volume. Nil-safe; returns the span for
// chaining.
func (s *Span) Edges(m int64) *Span {
	if s != nil {
		s.o.mu.Lock()
		s.o.spans[s.idx].Edges = m
		s.o.mu.Unlock()
	}
	return s
}

// Bytes records the phase's byte volume. Nil-safe; returns the span for
// chaining.
func (s *Span) Bytes(b int64) *Span {
	if s != nil {
		s.o.mu.Lock()
		s.o.spans[s.idx].Bytes = b
		s.o.mu.Unlock()
	}
	return s
}

// End closes the span, stamping wall time and the memory snapshot (live
// heap, cumulative allocation since the trace epoch, peak RSS). Ending a
// span also closes any still-open spans nested inside it, so an error path
// that returns early cannot corrupt the nesting. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	o := s.o
	heap, total := o.mem()
	rss := o.rss()
	o.mu.Lock()
	endNs := o.now().Sub(o.t0).Nanoseconds()
	// Pop the stack down to (and including) this span; inner spans still
	// open share the end stamp.
	for n := len(o.stack); n > 0; n = len(o.stack) {
		top := o.stack[n-1]
		o.stack = o.stack[:n-1]
		if o.open[top] {
			o.open[top] = false
			rec := &o.spans[top]
			rec.EndNs = endNs
			rec.HeapBytes = int64(heap)
			rec.AllocBytes = int64(total) - rec.AllocBytes
			rec.PeakRSSBytes = rss
		}
		if top == s.idx {
			break
		}
	}
	rec := o.spans[s.idx]
	notify := o.notify
	o.mu.Unlock()
	if notify != nil {
		notify(SpanEvent{Name: rec.Name, End: true, Depth: rec.Depth,
			WallNs: rec.EndNs - rec.StartNs, Edges: rec.Edges})
	}
}

// Spans returns a copy of the recorded spans (open spans have EndNs == -1).
// Nil-safe (returns nil).
func (o *Obs) Spans() []SpanRecord {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]SpanRecord, len(o.spans))
	copy(out, o.spans)
	for i := range out {
		if out[i].EndNs < 0 {
			// Open spans carry the start-time allocation offset, not a
			// delta — don't leak it.
			out[i].AllocBytes = 0
		}
	}
	return out
}

// DroppedSpans returns how many spans the cap has discarded so far.
// Nil-safe (returns 0).
func (o *Obs) DroppedSpans() int64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dropped
}

// readPeakRSS returns the process peak resident set size in bytes (VmHWM
// from /proc/self/status), or 0 where unavailable. The read is one small
// file at span ends — far off any hot path.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	const key = "VmHWM:"
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return 0
	}
	line := data[i+len(key):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	fields := bytes.Fields(line)
	if len(fields) < 1 {
		return 0
	}
	kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}
