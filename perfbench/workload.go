package main

import (
	"fmt"
	"sort"

	"scalefree/internal/sim"
)

// workload is one benchmark input: an ordered list of registry specs run
// in a single process at a fixed scale, with the figure shapes the output
// oracle expects from them.
type workload struct {
	name string
	why  string
	// specs run in order, each through sim.Lookup(id).Run.
	specs []string
	// scale is the measured size; tiny is the self-test size. Scheduler
	// knobs stay zero (GOMAXPROCS defaults) in both.
	scale, tiny sim.Scale
	// figures lists every figure the specs must produce, in output order.
	figures []figureSpec
}

// figureKind selects the invariants the oracle checks on a figure.
type figureKind int

const (
	// kindDegree: log-binned degree distributions. The binned mass sums
	// to 1 and, with cutoff > 0, no bin starts above the cutoff.
	kindDegree figureKind = iota + 1
	// kindHits: search coverage. Non-decreasing in x and at most the
	// topology's node count.
	kindHits
	// kindMessages: cumulative message counts, non-decreasing in x.
	kindMessages
	// kindPositive: positive ratios without an ordering claim.
	kindPositive
	// kindGiant: giant-component fractions in [0,1], non-increasing in the
	// removed fraction; series whose label contains "stderr" are
	// estimator uncertainties and only need to be non-negative.
	kindGiant
)

// figureSpec is the oracle's expectation for one figure.
type figureSpec struct {
	id     string
	kind   figureKind
	series int
	// cutoff is the hard cutoff of a kindDegree panel (0 = none).
	cutoff int
	// maxN returns the hit bound of a kindHits figure at the given scale.
	maxN func(sim.Scale) int
}

func nSearch(sc sim.Scale) int  { return sc.NSearch }
func nOverlay(sc sim.Scale) int { return sc.NOverlay }

// panels expands id prefixes into one figureSpec per panel letter.
func panels(prefix string, n int, f func(i int) figureSpec) []figureSpec {
	out := make([]figureSpec, n)
	for i := range out {
		out[i] = f(i)
		out[i].id = fmt.Sprintf("%s%c", prefix, 'a'+i)
	}
	return out
}

// workloads is the benchmark's workload table. Sizes are chosen so one
// iteration of each takes a few seconds on a 2-CPU host, so a measured run
// holds several iterations; the layer mix of each matches the spec at its
// documented scale (see README.md).
var workloads = []workload{
	{
		name:  "hapa-degree",
		why:   "fig3 HAPA degree distributions: growth (hop walks) does nearly all the work, no search sweep",
		specs: []string{"fig3"},
		scale: sim.Scale{NDegree: 850, Realizations: 4},
		tiny:  sim.Scale{NDegree: 300, Realizations: 1},
		figures: []figureSpec{
			{id: "fig3a", kind: kindDegree, series: 6},
			{id: "fig3b", kind: kindDegree, series: 6, cutoff: 50},
			{id: "fig3c", kind: kindDegree, series: 6, cutoff: 10},
		},
	},
	{
		name:  "dapa-nf-rw",
		why:   "fig10+fig12: GRN substrates, DAPA discovery floods and NF/RW sweeps; the two specs build identical topologies",
		specs: []string{"fig10", "fig12"},
		scale: sim.Scale{NSubstrate: 500, NOverlay: 250, Realizations: 4, Sources: 8, MaxTTLNF: 6},
		tiny:  sim.Scale{NSubstrate: 300, NOverlay: 150, Realizations: 1, Sources: 2, MaxTTLNF: 3},
		figures: append(
			panels("fig10", 9, func(int) figureSpec { return figureSpec{kind: kindHits, series: 7, maxN: nOverlay} }),
			panels("fig12", 9, func(int) figureSpec { return figureSpec{kind: kindHits, series: 7, maxN: nOverlay} })...),
	},
	{
		name:  "search-sweep",
		why:   "fig7, messaging, strategies at paper N: cheap CM/PA builds, most CPU in the search.Scratch kernels",
		specs: []string{"fig7", "messaging", "strategies"},
		scale: func() sim.Scale {
			sc := sim.PaperScale
			sc.Realizations, sc.Sources = 2, 40
			return sc
		}(),
		tiny: sim.Scale{NSearch: 300, Realizations: 1, Sources: 4, MaxTTLFlood: 5, MaxTTLNF: 3},
		figures: append(
			panels("fig7", 3, func(int) figureSpec { return figureSpec{kind: kindHits, series: 9, maxN: nSearch} }),
			figureSpec{id: "messaging-per-request", kind: kindMessages, series: 4},
			figureSpec{id: "messaging-per-hit", kind: kindPositive, series: 8},
			figureSpec{id: "strategies-nokc", kind: kindHits, series: 7, maxN: nSearch},
			figureSpec{id: "strategies-kc10", kind: kindHits, series: 7, maxN: nSearch},
		),
	},
	{
		name:  "attack",
		why:   "robustness under failures and hub attacks: metrics.RobustnessWith (components, sampled betweenness) dominates",
		specs: []string{"attack"},
		scale: func() sim.Scale {
			sc := sim.PaperScale
			sc.NSearch, sc.Realizations = 2100, 8
			return sc
		}(),
		tiny: sim.Scale{NSearch: 300, Realizations: 2},
		figures: []figureSpec{
			{id: "attack", kind: kindGiant, series: 8},
		},
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
