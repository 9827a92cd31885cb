package scalefree

// One benchmark per paper table and figure (each regenerates the artifact
// through the internal/sim spec registry at a reduced scale and reports
// headline metrics), plus ablation benches isolating individual modeling
// choices (see EXPERIMENTS.md for the spec registry and scales).
//
// Paper-scale regeneration is done by `go run ./cmd/experiments -scale
// paper`; these benches exist so `go test -bench=.` exercises every
// experiment end to end and tracks its cost over time.

import (
	"fmt"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/search"
	"scalefree/internal/sim"
	"scalefree/internal/xrand"
)

// benchScale is small enough for `go test -bench=.` to sweep every figure
// in minutes while preserving every qualitative trend.
var benchScale = sim.Scale{
	NDegree:      4000,
	NSearch:      2000,
	NSubstrate:   4000,
	NOverlay:     2000,
	Realizations: 2,
	Sources:      8,
	MaxTTLFlood:  12,
	MaxTTLNF:     6,
}

// runSpec regenerates one registered experiment per iteration and reports
// the number of panels and series produced.
func runSpec(b *testing.B, id string) {
	b.Helper()
	spec, err := sim.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var panels, series int
	for i := 0; i < b.N; i++ {
		figs, err := spec.Run(benchScale, uint64(1000+i))
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		panels = len(figs)
		series = 0
		for _, f := range figs {
			series += len(f.Series)
		}
	}
	b.ReportMetric(float64(panels), "panels")
	b.ReportMetric(float64(series), "series")
}

func BenchmarkFig1aPADegreeDist(b *testing.B)     { runSpec(b, "fig1a") }
func BenchmarkFig1bPAHardCutoff(b *testing.B)     { runSpec(b, "fig1b") }
func BenchmarkFig1cExponentVsCutoff(b *testing.B) { runSpec(b, "fig1c") }
func BenchmarkFig2CMDegreeDist(b *testing.B)      { runSpec(b, "fig2") }
func BenchmarkFig3HAPADegreeDist(b *testing.B)    { runSpec(b, "fig3") }
func BenchmarkFig4DAPADegreeDist(b *testing.B)    { runSpec(b, "fig4") }
func BenchmarkFig4gDAPAExponent(b *testing.B)     { runSpec(b, "fig4g") }
func BenchmarkFig6FloodPAHAPA(b *testing.B)       { runSpec(b, "fig6") }
func BenchmarkFig7FloodCM(b *testing.B)           { runSpec(b, "fig7") }
func BenchmarkFig8FloodDAPA(b *testing.B)         { runSpec(b, "fig8") }
func BenchmarkFig9NFPACMHAPA(b *testing.B)        { runSpec(b, "fig9") }
func BenchmarkFig10NFDAPA(b *testing.B)           { runSpec(b, "fig10") }
func BenchmarkFig11RWPACMHAPA(b *testing.B)       { runSpec(b, "fig11") }
func BenchmarkFig12RWDAPA(b *testing.B)           { runSpec(b, "fig12") }
func BenchmarkTable1DiameterScaling(b *testing.B) { runSpec(b, "table1") }
func BenchmarkTable2Locality(b *testing.B)        { runSpec(b, "table2") }
func BenchmarkMessagingComplexity(b *testing.B)   { runSpec(b, "messaging") }
func BenchmarkExtAttackTolerance(b *testing.B)    { runSpec(b, "attack") }
func BenchmarkExtDeliveryScaling(b *testing.B)    { runSpec(b, "delivery") }
func BenchmarkExtKWalkers(b *testing.B)           { runSpec(b, "kwalk") }
func BenchmarkExtFairness(b *testing.B)           { runSpec(b, "fairness") }
func BenchmarkExtStrategies(b *testing.B)         { runSpec(b, "strategies") }
func BenchmarkExtReplication(b *testing.B)        { runSpec(b, "replication") }
func BenchmarkExtChurn(b *testing.B)              { runSpec(b, "churn") }
func BenchmarkExtDESFlood(b *testing.B)           { runSpec(b, "desflood") }
func BenchmarkExtDESKWalk(b *testing.B)           { runSpec(b, "deskwalk") }

// BenchmarkWorkersScaling regenerates Fig. 9 (the NF sweep, the heaviest
// search spec) across the three-stage scheduler grid: sweep workers ×
// source shards × gen workers. workers=1/shards=1/gen=1 is the fully
// serial baseline; workers=2/shards=1/gen=1 is the PR 2 configuration
// (realization-level parallelism only, which starves once realizations <
// cores); the gen=1 vs gen=4 pair at workers=4/shards=4 isolates the PR 4
// pipelined build stage on a build-dominated run (benchScale has 2
// realizations, so generation is the long pole exactly as in the fig9
// smoke pprof that motivated the pipeline); "default" is the real default
// (all knobs 0), where the engine auto-sizes shards so that workers ×
// shards ≈ GOMAXPROCS and matches gen workers to sweep workers. Output is
// bit-for-bit identical at every grid point; only wall-clock changes.
func BenchmarkWorkersScaling(b *testing.B) {
	grid := []struct {
		name                 string
		workers, shards, gen int
	}{
		{"workers=1,shards=1,gen=1", 1, 1, 1},
		{"workers=2,shards=1,gen=1", 2, 1, 1},
		{"workers=4,shards=4,gen=1", 4, 4, 1},
		{"workers=4,shards=4,gen=4", 4, 4, 4},
		{"default", 0, 0, 0},
	}
	for _, c := range grid {
		sc := benchScale
		sc.Workers = c.workers
		sc.SourceShards = c.shards
		sc.GenWorkers = c.gen
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Fig9(sc, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations ---------------------------------------------------------

// Ablation (a): the literal Appendix A rejection loop vs the O(N·m)
// stub-list sampler. Same distribution, very different cost.
func BenchmarkAblationPASampling(b *testing.B) {
	const n, m = 1200, 2
	b.Run("literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := GeneratePA(PAConfig{N: n, M: m, LiteralSampling: true}, NewRNG(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stublist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := GeneratePA(PAConfig{N: n, M: m}, NewRNG(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation (b): DAPA on a GRN substrate vs a 2-D mesh — the paper argues
// GRN is "topologically closer to real life nodes in the Internet".
func BenchmarkAblationDAPASubstrate(b *testing.B) {
	run := func(b *testing.B, mkSub func(rng *RNG) (*Graph, error)) {
		var maxDeg int
		for i := 0; i < b.N; i++ {
			rng := NewRNG(uint64(100 + i))
			sub, err := mkSub(rng)
			if err != nil {
				b.Fatal(err)
			}
			ov, _, err := GenerateDAPA(sub, DAPAConfig{NOverlay: 1000, M: 2, KC: 40, TauSub: 10}, rng)
			if err != nil {
				b.Fatal(err)
			}
			maxDeg = ov.G.MaxDegree()
		}
		b.ReportMetric(float64(maxDeg), "maxdeg")
	}
	b.Run("grn", func(b *testing.B) {
		run(b, func(rng *RNG) (*Graph, error) {
			g, _, err := GenerateGRN(GRNConfig{N: 2000, MeanDegree: 10}, rng)
			return g, err
		})
	})
	b.Run("mesh", func(b *testing.B) {
		run(b, func(rng *RNG) (*Graph, error) { return GenerateMesh(45, 45) })
	})
}

// Ablation (c): NF fan-out = the prescribed m vs a fixed fan-out of 2 on
// an m=3 topology — how much of NF's performance comes from matching the
// network's connectedness.
func BenchmarkAblationNFFanOut(b *testing.B) {
	g, _, err := GeneratePA(PAConfig{N: 4000, M: 3, KC: 40}, NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, fan := range []int{3, 2} {
		fan := fan
		b.Run(fmt.Sprintf("kmin=%d", fan), func(b *testing.B) {
			rng := NewRNG(2)
			var hits int
			for i := 0; i < b.N; i++ {
				res, err := NormalizedFlood(g, rng.Intn(g.N()), 6, fan, rng)
				if err != nil {
					b.Fatal(err)
				}
				hits = res.HitsAt(6)
			}
			b.ReportMetric(float64(hits), "hits@6")
		})
	}
}

// Ablation (d): the paper's random walk excludes the node the query just
// came from; compare against a plain uniform walk that may bounce back.
func BenchmarkAblationRWBacktrack(b *testing.B) {
	g, _, err := GeneratePA(PAConfig{N: 4000, M: 1, KC: 40}, NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	const steps = 500
	b.Run("non-backtracking", func(b *testing.B) {
		rng := NewRNG(4)
		var hits int
		for i := 0; i < b.N; i++ {
			res, err := RandomWalk(g, rng.Intn(g.N()), steps, rng)
			if err != nil {
				b.Fatal(err)
			}
			hits = res.HitsAt(steps)
		}
		b.ReportMetric(float64(hits), "hits")
	})
	b.Run("uniform", func(b *testing.B) {
		rng := NewRNG(4)
		var hits int
		for i := 0; i < b.N; i++ {
			hits = uniformWalkHits(g, rng.Intn(g.N()), steps, rng)
		}
		b.ReportMetric(float64(hits), "hits")
	})
}

// Ablation (e): the high-degree-seeking walk's hub dependence — its
// coverage advantage over the blind walk with and without a hard cutoff
// (the strategies experiment's headline, isolated).
func BenchmarkAblationHDSHubDependence(b *testing.B) {
	const steps = 500
	for _, kc := range []int{NoCutoff, 10} {
		kc := kc
		name := "nokc"
		if kc != NoCutoff {
			name = fmt.Sprintf("kc=%d", kc)
		}
		b.Run(name, func(b *testing.B) {
			g, _, err := GeneratePA(PAConfig{N: 4000, M: 2, KC: kc}, NewRNG(5))
			if err != nil {
				b.Fatal(err)
			}
			rng := NewRNG(6)
			var hds, blind int
			for i := 0; i < b.N; i++ {
				src := rng.Intn(g.N())
				rh, err := HighDegreeWalk(g, src, steps, rng)
				if err != nil {
					b.Fatal(err)
				}
				rb, err := RandomWalk(g, src, steps, rng)
				if err != nil {
					b.Fatal(err)
				}
				hds = rh.HitsAt(steps)
				blind = rb.HitsAt(steps)
			}
			b.ReportMetric(float64(hds), "hds-hits")
			b.ReportMetric(float64(blind), "rw-hits")
		})
	}
}

// uniformWalkHits is the ablation walker: uniform neighbor choice,
// backtracking allowed.
func uniformWalkHits(g *Graph, src, steps int, rng *RNG) int {
	visited := map[int]bool{src: true}
	cur := src
	for t := 0; t < steps; t++ {
		next := g.RandomNeighbor(cur, rng)
		if next < 0 {
			break
		}
		cur = next
		visited[cur] = true
	}
	return len(visited)
}

// --- Core-primitive throughput ----------------------------------------

// BenchmarkGenerators tracks raw generator throughput at search scale.
func BenchmarkGenerators(b *testing.B) {
	const n, m, kc = 10000, 2, 40
	b.Run("pa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gen.PA(gen.PAConfig{N: n, M: m, KC: kc}, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gen.CM(gen.CMConfig{N: n, M: m, KC: kc, Gamma: 2.5}, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hapa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gen.HAPA(gen.HAPAConfig{N: n, M: m, KC: kc}, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dapa", func(b *testing.B) {
		sub, _, err := gen.GRN(gen.GRNConfig{N: 2 * n, MeanDegree: 10}, xrand.New(9))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := gen.DAPA(sub, gen.DAPAConfig{NOverlay: n, M: m, KC: kc, TauSub: 6}, xrand.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearches tracks raw search throughput on a 10k-node PA graph.
func BenchmarkSearches(b *testing.B) {
	g, _, err := gen.PA(gen.PAConfig{N: 10000, M: 2, KC: 40}, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	f := g.Freeze()
	var s search.Scratch
	rng := xrand.New(2)
	b.Run("flood", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Flood(f, rng.Intn(g.N()), 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.NormalizedFlood(f, rng.Intn(g.N()), 10, 2, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rw-nf-budget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := s.RandomWalkWithNFBudget(f, rng.Intn(g.N()), 10, 2, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLiveOverlayGrow measures the live runtime: peers joining per
// second through real protocol messages.
func BenchmarkLiveOverlayGrow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o, err := NewOverlay(OverlayConfig{
			M: 2, KC: 20, TauSub: 4, Strategy: JoinDAPA,
			Seed: uint64(i), DiscoverWindow: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Grow(100, nil); err != nil {
			b.Fatal(err)
		}
		o.Shutdown()
	}
	b.ReportMetric(100, "peers/op")
}
