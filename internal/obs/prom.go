package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// promHandler serves the Prometheus text exposition format (version 0.0.4,
// stdlib-only) for whatever hub the atomically-swapped pointer currently
// holds: counters as prometheus counters, gauges and the latest quality
// sample as prometheus gauges, and the log2 histograms as cumulative
// le-bucket histograms. Mounted on the ServeDebug listener at /metrics.
func promHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, currentObs.Load())
}

// writeProm renders the full exposition for one hub (nil-safe: a nil hub
// exports nothing, which is a valid empty exposition).
func writeProm(w io.Writer, o *Obs) {
	c := o.Counters()
	for id := CounterID(0); id < NumCounters; id++ {
		name := "hep_" + id.String() + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Total(id))
	}
	for g := GaugeID(0); g < NumGauges; g++ {
		name := "hep_" + g.String()
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, c.Gauge(g))
	}
	fmt.Fprintf(w, "# TYPE hep_spans_dropped gauge\nhep_spans_dropped %d\n", o.DroppedSpans())
	fmt.Fprintf(w, "# TYPE hep_series_evicted gauge\nhep_series_evicted %d\n", o.SeriesEvicted())
	if s, ok := o.LatestSample(); ok {
		quality := []struct {
			name string
			v    float64
		}{
			{"hep_quality_edges", float64(s.Edges)},
			{"hep_quality_replicas", float64(s.Replicas)},
			{"hep_quality_covered", float64(s.Covered)},
			{"hep_quality_rf", s.RF},
			{"hep_quality_balance", s.Balance},
			{"hep_quality_spread", s.Spread},
		}
		for _, q := range quality {
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", q.name, q.name,
				strconv.FormatFloat(q.v, 'g', -1, 64))
		}
	}
	for id := HistID(0); id < NumHists; id++ {
		rec := c.HistRecord(id)
		name := "hep_" + id.String()
		fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		// Log2 buckets become cumulative le buckets: bucket i counts values
		// with bit length i, i.e. v ≤ 2^i − 1 for the cumulative bound.
		var cum int64
		for b, cnt := range rec.Counts {
			cum += cnt
			if cnt == 0 && b != len(rec.Counts)-1 {
				continue // keep the exposition compact; cumulative stays exact
			}
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, promLE(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %d\n", name, rec.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, cum)
	}
	writePromMeta(w, o)
}

// promLE renders the upper bound of log2 bucket b: values in bucket b have
// bit length b, so the inclusive upper bound is 2^b − 1 (bucket 0 holds
// v ≤ 0).
func promLE(b int) string {
	if b == 0 {
		return "0"
	}
	if b >= 63 {
		return strconv.FormatUint(1<<uint(b)-1, 10)
	}
	return strconv.FormatInt(1<<uint(b)-1, 10)
}

// writePromMeta exports the run/repro metadata as a constant info gauge, the
// conventional shape for build/run labels.
func writePromMeta(w io.Writer, o *Obs) {
	if o == nil {
		return
	}
	o.mu.Lock()
	labels := make([]string, 0, len(o.repro))
	for k, v := range o.repro {
		labels = append(labels, fmt.Sprintf("%s=%q", k, v))
	}
	o.mu.Unlock()
	if len(labels) == 0 {
		return
	}
	sort.Strings(labels)
	fmt.Fprintf(w, "# TYPE hep_run_info gauge\nhep_run_info{")
	for i, l := range labels {
		if i > 0 {
			io.WriteString(w, ",")
		}
		io.WriteString(w, l)
	}
	io.WriteString(w, "} 1\n")
}
