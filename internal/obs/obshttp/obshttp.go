// Package obshttp is the `-metrics-addr` debug listener over an obs hub:
// expvar, the pprof suite, Prometheus text exposition and the live trace.
// It is kept out of package obs so that the library, which every algorithm
// links, carries none of net/http, expvar or pprof (and, through net, no
// cgo): only a command that serves the endpoints imports this package, and
// importing it is what registers /debug/pprof/ and /debug/vars on
// http.DefaultServeMux.
package obshttp

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"

	"hep/internal/obs"
)

// The expvar package keeps one global registry and panics on duplicate
// Publish, so the hep vars are published exactly once and read through an
// atomically-swapped current-Obs pointer. Every accessor below is nil-safe,
// so the vars are scrapable even before a run installs its Obs.
var (
	currentObs  atomic.Pointer[obs.Obs]
	publishOnce sync.Once
)

// ServeDebug starts the `-metrics-addr` debug listener: expvar
// (/debug/vars, including live hep_counters/hep_gauges/hep_spans_dropped),
// Prometheus text exposition (/metrics — counters, gauges, histograms and
// the latest quality sample), the pprof suite (/debug/pprof/), and the live
// trace report (/debug/trace.json). Returns the server (Close it to stop)
// and the bound address (useful with ":0").
func ServeDebug(o *obs.Obs, addr string) (*http.Server, net.Addr, error) {
	currentObs.Store(o)
	publishOnce.Do(func() {
		expvar.Publish("hep_counters", expvar.Func(func() any {
			return currentObs.Load().Counters().CounterSnapshot()
		}))
		expvar.Publish("hep_gauges", expvar.Func(func() any {
			return currentObs.Load().Counters().GaugeSnapshot()
		}))
		expvar.Publish("hep_spans_dropped", expvar.Func(func() any {
			return currentObs.Load().DroppedSpans()
		}))
		expvar.Publish("hep_series_evicted", expvar.Func(func() any {
			return currentObs.Load().SeriesEvicted()
		}))
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", promHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace.json", func(w http.ResponseWriter, r *http.Request) {
		rep := currentObs.Load().Report()
		if rep == nil {
			http.Error(w, "no active trace", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		rep.WriteJSON(w)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}
