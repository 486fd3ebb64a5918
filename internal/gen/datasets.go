package gen

import (
	"fmt"
	"sort"

	"hep/internal/graph"
)

// Dataset is a named synthetic stand-in for one of the paper's real-world
// graphs (Table 3). Build is deterministic; scale multiplies the vertex
// count (scale 1.0 is the default CI-friendly size — the paper's graphs are
// orders of magnitude larger, which a 2-core test box cannot hold, so the
// experiments reproduce relative behavior at reduced scale).
type Dataset struct {
	Name  string // paper short name, e.g. "OK"
	Kind  string // Social, Web, Biological
	Paper string // the real graph this stands in for
	Build func(scale float64) *graph.MemGraph
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// Datasets maps paper graph names to their synthetic stand-ins. The three
// graphs used throughout the paper's deep-dive experiments (OK, IT, TW) plus
// LJ, WI, BR, FR, UK are always available; GSH and WDC are reduced-size
// proxies of the same generator family (the originals are 33B/64B edges).
var Datasets = map[string]Dataset{
	"LJ": {
		Name: "LJ", Kind: "Social", Paper: "com-livejournal (4.0M vertices, 35M edges)",
		Build: func(s float64) *graph.MemGraph {
			return CommunityPowerLaw(scaled(40_000, s), 250, 9, 0.15, 42)
		},
	},
	"OK": {
		Name: "OK", Kind: "Social", Paper: "com-orkut (3.1M vertices, 117M edges)",
		Build: func(s float64) *graph.MemGraph {
			return CommunityPowerLaw(scaled(24_000, s), 120, 24, 0.2, 43)
		},
	},
	"BR": {
		Name: "BR", Kind: "Biological", Paper: "brain (784k vertices, 268M edges)",
		Build: func(s float64) *graph.MemGraph {
			return ErdosRenyi(scaled(4_000, s), scaled(500_000, s), 44)
		},
	},
	"WI": {
		Name: "WI", Kind: "Web", Paper: "wiki-links (12M vertices, 378M edges)",
		Build: func(s float64) *graph.MemGraph {
			return RMAT(poweredScale(15, s), 10, 0.57, 0.19, 0.19, 45)
		},
	},
	"IT": {
		Name: "IT", Kind: "Web", Paper: "it-2004 (41M vertices, 1.2B edges)",
		Build: func(s float64) *graph.MemGraph {
			return WebGraph(scaled(1_500, s), 40, 6, 0.03, 46)
		},
	},
	"TW": {
		Name: "TW", Kind: "Social", Paper: "twitter-2010 (42M vertices, 1.5B edges)",
		Build: func(s float64) *graph.MemGraph {
			// Twitter mixes celebrity hubs with weak community locality:
			// higher mixing than LJ/OK, heavier attachment.
			return CommunityPowerLaw(scaled(45_000, s), 150, 14, 0.35, 47)
		},
	},
	"FR": {
		Name: "FR", Kind: "Social", Paper: "com-friendster (66M vertices, 1.8B edges)",
		Build: func(s float64) *graph.MemGraph {
			return PowerLawConfig(scaled(50_000, s), 2.2, 4, 2_000, 48)
		},
	},
	"UK": {
		Name: "UK", Kind: "Web", Paper: "uk-2007-05 (106M vertices, 3.7B edges)",
		Build: func(s float64) *graph.MemGraph {
			return WebGraph(scaled(2_500, s), 50, 7, 0.02, 49)
		},
	},
	"GSH": {
		Name: "GSH", Kind: "Web", Paper: "gsh-2015 (988M vertices, 33B edges)",
		Build: func(s float64) *graph.MemGraph {
			return WebGraph(scaled(4_000, s), 60, 8, 0.02, 50)
		},
	},
	"WDC": {
		Name: "WDC", Kind: "Web", Paper: "wdc-2014 (1.7B vertices, 64B edges)",
		Build: func(s float64) *graph.MemGraph {
			return WebGraph(scaled(5_000, s), 70, 8, 0.015, 51)
		},
	},
}

// poweredScale adjusts an RMAT scale exponent by a linear vertex-count
// factor: scale 2.0 adds one level, 0.5 removes one.
func poweredScale(base int, s float64) int {
	n := base
	for s >= 2 {
		n++
		s /= 2
	}
	for s <= 0.5 && n > 8 {
		n--
		s *= 2
	}
	return n
}

// MustDataset returns the dataset registered under name, panicking on
// unknown names (registry keys are programmer-controlled).
func MustDataset(name string) Dataset {
	d, ok := Datasets[name]
	if !ok {
		panic(fmt.Sprintf("gen: unknown dataset %q", name))
	}
	return d
}

// DatasetNames returns the registry keys in deterministic order.
func DatasetNames() []string {
	names := make([]string, 0, len(Datasets))
	for n := range Datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
