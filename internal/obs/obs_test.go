package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeObs returns an enabled hub with deterministic time/memory sources: the
// clock advances 1ms per observation, cumulative allocation grows 1MiB per
// memory snapshot, live heap and peak RSS are constants. The repro metadata
// is pinned too, so golden wire-format tests don't depend on the machine.
func fakeObs() *Obs {
	return fakeObsWith(Options{})
}

func fakeObsWith(opts Options) *Obs {
	o := NewWithOptions(opts)
	o.repro = map[string]string{
		"go_version": "go1.24.0",
		"gomaxprocs": "4",
		"goos":       "linux",
		"goarch":     "amd64",
	}
	base := time.Unix(1700000000, 0)
	o.t0 = base
	var tick int64
	o.now = func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	}
	var total uint64
	o.mem = func() (uint64, uint64) {
		total += 1 << 20
		return 64 << 20, total
	}
	o.rss = func() int64 { return 256 << 20 }
	return o
}

// TestSpanNesting pins the span tree the tracer records: parents precede
// children, depths follow the stack, siblings share a parent, and start
// times are monotone in open order.
func TestSpanNesting(t *testing.T) {
	o := fakeObs()
	root := o.Span("root")
	child := o.Span("child")
	grand := o.Span("grand")
	grand.End()
	child.End()
	sib := o.Span("sibling")
	sib.End()
	root.End()
	second := o.Span("second-root")
	second.End()

	spans := o.Spans()
	want := []struct {
		name   string
		parent int
		depth  int
	}{
		{"root", -1, 0},
		{"child", 0, 1},
		{"grand", 1, 2},
		{"sibling", 0, 1},
		{"second-root", -1, 0},
	}
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(spans), len(want))
	}
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Depth != w.depth {
			t.Errorf("span %d = {%s parent=%d depth=%d}, want {%s parent=%d depth=%d}",
				i, s.Name, s.Parent, s.Depth, w.name, w.parent, w.depth)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends (%d) before it starts (%d)", s.Name, s.EndNs, s.StartNs)
		}
		if i > 0 && s.StartNs < spans[i-1].StartNs {
			t.Errorf("span %s starts before its predecessor", s.Name)
		}
		if s.AllocBytes <= 0 || s.HeapBytes != 64<<20 || s.PeakRSSBytes != 256<<20 {
			t.Errorf("span %s memory snapshot = alloc %d heap %d rss %d",
				s.Name, s.AllocBytes, s.HeapBytes, s.PeakRSSBytes)
		}
	}
}

// TestSpanEndForceClosesChildren pins the error-path guarantee: ending an
// outer span closes every span still open inside it, with a shared end
// stamp, so an early return cannot corrupt the nesting for later phases.
func TestSpanEndForceClosesChildren(t *testing.T) {
	o := fakeObs()
	root := o.Span("root")
	o.Span("leaked-child")
	o.Span("leaked-grand")
	root.End()

	spans := o.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	for _, s := range spans {
		if s.EndNs < 0 {
			t.Errorf("span %s still open after root.End", s.Name)
		}
		if s.EndNs != spans[0].EndNs {
			t.Errorf("span %s end %d, want the shared stamp %d", s.Name, s.EndNs, spans[0].EndNs)
		}
	}
	// The tracer must be reusable after the force-close.
	next := o.Span("next")
	next.End()
	if got := o.Spans(); len(got) != 4 || got[3].Parent != -1 {
		t.Fatalf("post-recovery span = %+v", got[len(got)-1])
	}
}

// TestSpanCap pins the bounded-trace guarantee: spans past the configured
// cap are dropped (nil handle, no growth), counted in the report, and
// surfaced through the DroppedSpans accessor the expvar/Prometheus endpoints
// scrape.
func TestSpanCap(t *testing.T) {
	const cap, extra = 16, 7
	o := fakeObsWith(Options{MaxSpans: cap})
	for i := 0; i < cap+extra; i++ {
		o.Span(fmt.Sprintf("s%d", i)).End()
	}
	if n := len(o.Spans()); n != cap {
		t.Fatalf("stored %d spans, want the %d cap", n, cap)
	}
	if r := o.Report(); r.DroppedSpans != extra {
		t.Fatalf("dropped %d spans, want %d", r.DroppedSpans, extra)
	}
	if got := o.DroppedSpans(); got != extra {
		t.Fatalf("DroppedSpans() = %d, want %d", got, extra)
	}
	if def := New(); def.maxSpans != DefaultMaxSpans {
		t.Fatalf("default span cap = %d, want %d", def.maxSpans, DefaultMaxSpans)
	}
}

// TestSpanNotify pins the progress-notifier event stream: one start and one
// end event per span, in transition order, with duration and edges on ends.
func TestSpanNotify(t *testing.T) {
	o := fakeObs()
	var events []SpanEvent
	o.SetNotify(func(ev SpanEvent) { events = append(events, ev) })
	sp := o.Span("stream")
	sp.Edges(42).End()

	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].End || events[0].Name != "stream" || events[0].Depth != 0 {
		t.Errorf("start event = %+v", events[0])
	}
	if !events[1].End || events[1].Edges != 42 || events[1].WallNs <= 0 {
		t.Errorf("end event = %+v", events[1])
	}
}

// TestDisabledHotPathAllocates0 is the disabled-must-be-free pin: the full
// instrumentation surface on a nil hub — spans, counters, gauges, totals —
// allocates nothing.
func TestDisabledHotPathAllocates0(t *testing.T) {
	var o *Obs
	allocs := testing.AllocsPerRun(1000, func() {
		sp := o.Span("phase")
		sp.Edges(1).Bytes(2)
		sp.End()
		c := o.Counters()
		c.Add(CtrEdgesStreamed, 512)
		c.SetMax(GaugePeakBufferBytes, 4)
		c.Observe(HistBatchNs, 12345)
		if c.Total(CtrEdgesStreamed) != 0 || c.Gauge(GaugePeakBufferBytes) != 0 {
			t.Fatal("nil counters returned nonzero")
		}
		if o.SampleTick() {
			t.Fatal("nil hub asked for a quality sample")
		}
		o.RecordSample(10, 10, 10, 1, 1, 4)
		o.SetTotalEdges(100)
		o.SetMeta("k", 32)
	})
	if allocs != 0 {
		t.Fatalf("disabled hot path allocates %.1f per run, want 0", allocs)
	}
}

// TestEnabledCounterAddAllocates0 pins that the enabled fold path is also
// allocation-free: an Add at a batch boundary is one atomic add.
func TestEnabledCounterAddAllocates0(t *testing.T) {
	c := NewCounters()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(CtrEdgesStreamed, 4096)
		c.Add(CtrBatches, 1)
		c.SetMax(GaugePeakBufferBytes, 1<<20)
		c.Observe(HistBatchNs, 1<<17)
	})
	if allocs != 0 {
		t.Fatalf("enabled fold path allocates %.1f per run, want 0", allocs)
	}
}

// TestCountersConcurrentFold drives W writer goroutines against the one
// counter block while a reader scrapes totals, under the race detector.
// Totals must come out exact and the gauge must keep the maximum.
func TestCountersConcurrentFold(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			c := NewCounters()
			const folds = 2000
			var writers, scraper sync.WaitGroup
			stop := make(chan struct{})
			scraper.Add(1)
			go func() { // concurrent scraper: totals must be safe mid-run
				defer scraper.Done()
				for {
					select {
					case <-stop:
						return
					default:
						c.Total(CtrEdgesStreamed)
						c.CounterSnapshot()
					}
				}
			}()
			for w := 0; w < workers; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < folds; i++ {
						c.Add(CtrEdgesStreamed, 3)
						c.Add(CtrBatches, 1)
						c.SetMax(GaugePeakBufferBytes, int64(w+1))
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			scraper.Wait()

			if got := c.Total(CtrEdgesStreamed); got != int64(workers)*folds*3 {
				t.Errorf("edges total %d, want %d", got, int64(workers)*folds*3)
			}
			if got := c.Total(CtrBatches); got != int64(workers)*folds {
				t.Errorf("batch total %d, want %d", got, int64(workers)*folds)
			}
			if got := c.Gauge(GaugePeakBufferBytes); got != int64(workers) {
				t.Errorf("gauge %d, want %d", got, workers)
			}
		})
	}
}

// TestCounterNamesStable pins the machine-readable names: every counter,
// gauge and histogram has a unique non-"unknown" snake_case name — renaming
// one is a trace-schema break that must be deliberate.
func TestCounterNamesStable(t *testing.T) {
	seen := map[string]bool{}
	for id := CounterID(0); id < NumCounters; id++ {
		n := id.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("counter %d has bad or duplicate name %q", id, n)
		}
		seen[n] = true
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		n := g.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("gauge %d has bad or duplicate name %q", g, n)
		}
		seen[n] = true
	}
	for h := HistID(0); h < NumHists; h++ {
		n := h.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Errorf("histogram %d has bad or duplicate name %q", h, n)
		}
		seen[n] = true
	}
}

// TestHistogramBuckets pins the log2 bucketing: v ≤ 0 lands in bucket 0,
// positive values in the bucket of their bit length, and sums are exact.
func TestHistogramBuckets(t *testing.T) {
	c := NewCounters()
	c.Observe(HistRegionEdges, 0)     // bucket 0
	c.Observe(HistRegionEdges, -5)    // bucket 0, no sum
	c.Observe(HistRegionEdges, 1)     // bucket 1
	c.Observe(HistRegionEdges, 7)     // bucket 3
	c.Observe(HistRegionEdges, 8)     // bucket 4
	c.Observe(HistRegionEdges, 1<<40) // bucket 41

	rec := c.HistRecord(HistRegionEdges)
	if len(rec.Counts) != HistBuckets {
		t.Fatalf("record has %d buckets, want %d", len(rec.Counts), HistBuckets)
	}
	wantBuckets := map[int]int64{0: 2, 1: 1, 3: 1, 4: 1, 41: 1}
	for b, cnt := range rec.Counts {
		if cnt != wantBuckets[b] {
			t.Errorf("bucket %d = %d, want %d", b, cnt, wantBuckets[b])
		}
	}
	if want := int64(1 + 7 + 8 + 1<<40); rec.Sum != want {
		t.Errorf("sum = %d, want %d", rec.Sum, want)
	}
	if got := c.HistCount(HistRegionEdges); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	snap := c.HistSnapshot()
	if _, ok := snap["region_edges"]; !ok || len(snap) != 1 {
		t.Errorf("snapshot = %v, want only the observed region_edges", snap)
	}
}

// TestQualitySeries pins the sampler: RF/balance/spread derivations, the
// FIFO ring eviction with chronological Series order, the SampleEvery
// thinning, and the disabled forms.
func TestQualitySeries(t *testing.T) {
	o := fakeObsWith(Options{SeriesCap: 4})
	if !o.SampleTick() {
		t.Fatal("enabled hub refused a sample tick")
	}
	o.RecordSample(1000, 1500, 1000, 300, 200, 4)
	s, ok := o.LatestSample()
	if !ok {
		t.Fatal("no latest sample after RecordSample")
	}
	if s.RF != 1.5 {
		t.Errorf("rf = %v, want 1.5", s.RF)
	}
	if s.Balance != 1.2 {
		t.Errorf("balance = %v, want 1.2", s.Balance)
	}
	if s.Spread != 0.4 {
		t.Errorf("spread = %v, want 0.4", s.Spread)
	}
	// Overflow the ring: 6 more samples into cap 4 → 3 evicted, the series
	// keeps the newest 4 in chronological order.
	for i := 1; i <= 6; i++ {
		o.RecordSample(int64(1000+i), 1500, 1000, 300, 200, 4)
	}
	got := o.Series()
	if len(got) != 4 {
		t.Fatalf("series length %d, want 4", len(got))
	}
	for i := range got {
		if i > 0 && got[i].TimeNs <= got[i-1].TimeNs {
			t.Fatalf("series out of order at %d: %v", i, got)
		}
	}
	if got[3].Edges != 1006 || got[0].Edges != 1003 {
		t.Errorf("series window = [%d..%d], want [1003..1006]", got[0].Edges, got[3].Edges)
	}
	if o.SeriesEvicted() != 3 {
		t.Errorf("evicted = %d, want 3", o.SeriesEvicted())
	}

	// Thinning: SampleEvery=3 says yes on every third tick.
	th := fakeObsWith(Options{SampleEvery: 3})
	yes := 0
	for i := 0; i < 9; i++ {
		if th.SampleTick() {
			yes++
		}
	}
	if yes != 3 {
		t.Errorf("SampleEvery=3: %d ticks sampled out of 9, want 3", yes)
	}

	// Disabled: negative cap or cadence refuses ticks and records nothing.
	for _, off := range []*Obs{
		fakeObsWith(Options{SeriesCap: -1}),
		fakeObsWith(Options{SampleEvery: -1}),
	} {
		if off.SampleTick() {
			t.Error("disabled sampler accepted a tick")
		}
		off.RecordSample(10, 10, 10, 1, 1, 4)
		if off.Series() != nil && len(off.Series()) != 0 {
			t.Error("disabled sampler recorded a sample")
		}
	}
}
