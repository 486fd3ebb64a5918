package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestProgressReporter drives the -v reporter through a phase with a known
// edge total: it must print the phase transitions and at least one periodic
// line with percentage and throughput.
func TestProgressReporter(t *testing.T) {
	o := New()
	var buf bytes.Buffer
	p := StartProgress(o, &buf, 2*time.Millisecond)
	o.SetTotalEdges(2000)

	sp := o.Span("stream")
	o.Counters().Add(CtrEdgesStreamed, 1000)
	time.Sleep(30 * time.Millisecond) // several ticks
	sp.Edges(1000).End()
	p.Stop()

	out := buf.String()
	for _, want := range []string{"phase stream", "done", "edges/s", "(50%)"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

// TestProgressMultiPassNoOverrun pins the multi-pass percentage fix:
// edges_streamed is cumulative across passes (a 3-pass restream folds 3·m),
// but the reporter scopes the percentage to the current root phase, so no
// line may ever read above 100% — the pre-fix reporter printed 200% on pass
// two and a negative ETA.
func TestProgressMultiPassNoOverrun(t *testing.T) {
	o := New()
	var buf bytes.Buffer
	p := StartProgress(o, &buf, time.Hour) // ticks driven manually via report
	defer p.Stop()
	const m = 1000
	o.SetTotalEdges(m)

	// Pass 1: the full m edges fold, then the pass ends.
	sp := o.Span("stream-pass-1")
	o.Counters().Add(CtrEdgesStreamed, m)
	p.report(time.Second)
	sp.Edges(m).End()

	// Pass 2: the root-span start rebases the phase; half of the pass folds.
	// Cumulative streamed is now 1.5·m — the pre-fix pct read 150%.
	sp = o.Span("restream-pass-2")
	o.Counters().Add(CtrEdgesStreamed, m/2)
	p.report(2 * time.Second)
	sp.Edges(m).End()

	out := buf.String()
	if !strings.Contains(out, "(100%)") {
		t.Errorf("pass 1 line missing 100%%:\n%s", out)
	}
	if !strings.Contains(out, "(50%)") {
		t.Errorf("pass 2 line not rebased to 50%%:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		for _, frag := range []string{"(101%", "(150%", "(200%", "ETA -"} {
			if strings.Contains(line, frag) {
				t.Errorf("progress line overran its pass: %q", line)
			}
		}
	}
}

// TestProgressNil pins the disabled contract: no Obs, no reporter, and Stop
// on the nil reporter is safe.
func TestProgressNil(t *testing.T) {
	p := StartProgress(nil, nil, time.Second)
	if p != nil {
		t.Fatalf("StartProgress(nil) = %v, want nil", p)
	}
	p.Stop()
}

// TestFmtHelpers pins the compact renderers the progress lines use.
func TestFmtHelpers(t *testing.T) {
	durs := map[int64]string{
		1_500_000_000: "1.50s",
		42_000_000:    "42ms",
		7_000:         "7µs",
	}
	for ns, want := range durs {
		if got := fmtDur(ns); got != want {
			t.Errorf("fmtDur(%d) = %q, want %q", ns, got, want)
		}
	}
	counts := map[int64]string{
		2_500_000_000: "2.50G",
		1_200_000:     "1.2M",
		34_500:        "34.5k",
		678:           "678",
	}
	for n, want := range counts {
		if got := fmtCount(n); got != want {
			t.Errorf("fmtCount(%d) = %q, want %q", n, got, want)
		}
	}
}
