package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/search"
	"scalefree/internal/sim"
	"scalefree/internal/stats"
	xm "scalefree/internal/xrand"

	sfmetrics "scalefree/internal/metrics"
)

// The replay re-runs each spec's parameter grid from this package,
// serially, calling the same public functions with the same seeds and RNG
// streams the spec derives, so every topology and every search equals the
// engine's. Each call into a layer is a span; generator statistics that
// sim discards are kept as counters. Every series the replay reduces is
// kept as the figure's expected Y values, and check compares them with
// the figures the engine wrote for the same seed: if a spec changes what
// it runs, the traced run fails instead of timing other work.

// replayer carries the state of one traced replay.
type replayer struct {
	t       *tracer
	sc      sim.Scale
	arena   *graph.CSRArena
	scratch *search.Scratch
	ctr     map[string]float64
	// queryUS holds every search kernel call's latency in microseconds.
	queryUS []float64
	// csrMaxBytes is the largest computed CSR snapshot size.
	csrMaxBytes float64
	// want holds, per figure ID, the Y values of each series the replay
	// reduced, in the spec's series order.
	want map[string][][]float64
}

func newReplayer(t *tracer, sc sim.Scale) *replayer {
	return &replayer{t: t, sc: sc, arena: graph.NewCSRArena(), scratch: search.NewScratch(0), ctr: map[string]float64{}, want: map[string][][]float64{}}
}

// replay runs the grids of w's specs in order under one root span.
func (rp *replayer) replay(w workload, seed uint64) error {
	root := rp.t.begin("replay "+w.name, "")
	defer rp.t.end(root)
	for _, id := range w.specs {
		sp := rp.t.begin("spec "+id, "")
		var err error
		switch id {
		case "fig3":
			err = rp.fig3(seed)
		case "fig10":
			err = rp.dapaNFRW(seed, false)
		case "fig12":
			err = rp.dapaNFRW(seed, true)
		case "fig7":
			err = rp.fig7(seed)
		case "messaging":
			err = rp.messaging(seed)
		case "strategies":
			err = rp.strategies(seed)
		case "attack":
			err = rp.attack(seed)
		default:
			err = fmt.Errorf("no replay for spec %q", id)
		}
		rp.t.end(sp)
		if err != nil {
			return fmt.Errorf("replay %s: %w", id, err)
		}
	}
	return nil
}

// expect appends a series' Y values to figure id's expected series.
func (rp *replayer) expect(id string, ys []float64) {
	rp.want[id] = append(rp.want[id], ys)
}

// replayTolerance is the relative difference allowed between a replayed
// and an engine value. Both sum in the same order, so they agree to the
// last bit today; the slack only keeps a reordered float sum from reading
// as drift, while a different topology or search moves values by far more.
const replayTolerance = 1e-9

// check compares the replay's series with the engine's figures of w for
// the same seed and scale, and returns one message per figure that
// differs or was not replayed.
func (rp *replayer) check(w workload, figs []sim.Figure) map[string]string {
	got := make(map[string]sim.Figure, len(figs))
	for _, f := range figs {
		got[f.ID] = f
	}
	bad := map[string]string{}
	for _, fs := range w.figures {
		want, ok := rp.want[fs.id]
		if !ok {
			bad[fs.id] = "replay does not reproduce this figure"
			continue
		}
		fig := got[fs.id]
		if len(fig.Series) != len(want) {
			bad[fs.id] = fmt.Sprintf("replay reduced %d series, the engine wrote %d", len(want), len(fig.Series))
			continue
		}
	series:
		for i, s := range fig.Series {
			if len(s.Points) != len(want[i]) {
				bad[fs.id] = fmt.Sprintf("series %q: replay has %d points, the engine %d", s.Label, len(want[i]), len(s.Points))
				break
			}
			for j, p := range s.Points {
				if d := math.Abs(p.Y - want[i][j]); d > replayTolerance*math.Max(1, math.Abs(p.Y)) {
					bad[fs.id] = fmt.Sprintf("series %q point %d: replay y=%v, engine y=%v", s.Label, j, want[i][j], p.Y)
					break series
				}
			}
		}
	}
	return bad
}

// do times fn as a span of the given layer.
func (rp *replayer) do(name, layer string, fn func() error) error {
	id := rp.t.begin(name, layer)
	err := fn()
	rp.t.end(id)
	return err
}

// phases returns the build context the engine hands realization r of a
// series seeded with seed (phase streams, one build worker's arena).
func (rp *replayer) phases(seed uint64, r int) gen.Build {
	b := gen.NewBuild(xm.Phases{Seed: seed, Realization: uint64(r)}, 1)
	b.Arena = rp.arena
	return b
}

// grow times one generator call and folds its statistics into the
// gen.<model>.* counters.
func (rp *replayer) grow(model string, n int, fn func() (gen.Stats, error)) error {
	var st gen.Stats
	err := rp.do("gen."+model, "gen", func() (err error) {
		st, err = fn()
		return err
	})
	if err != nil {
		return err
	}
	p := "gen." + model + "."
	rp.ctr[p+"builds"]++
	rp.ctr[p+"nodes"] += float64(n)
	rp.ctr[p+"attempts"] += float64(st.Attempts)
	rp.ctr[p+"fallbacks"] += float64(st.Fallbacks)
	rp.ctr[p+"unfilled"] += float64(st.UnfilledStubs)
	rp.ctr[p+"self_loops_removed"] += float64(st.SelfLoopsRemoved)
	rp.ctr[p+"multi_edges_removed"] += float64(st.MultiEdgesRemoved)
	rp.ctr[p+"hops"] += float64(st.Hops)
	rp.ctr[p+"horizon_queries"] += float64(st.HorizonQueries)
	rp.ctr[p+"empty_horizons"] += float64(st.EmptyHorizons)
	rp.ctr[p+"joined"] += float64(st.Joined)
	return nil
}

// noteCSR records a snapshot's computed CSR size: int32 offsets and
// neighbors, plus the sorted copy when materialized.
func (rp *replayer) noteCSR(f *graph.Frozen, sorted bool) {
	b := 4*float64(f.N()+1) + 4*float64(f.TotalDegree())
	if sorted {
		b += 4 * float64(f.TotalDegree())
	}
	if b > rp.csrMaxBytes {
		rp.csrMaxBytes = b
	}
}

// freeze times Graph.FreezePar (with the engine's intra budget of 1).
func (rp *replayer) freeze(g *graph.Graph) *graph.Frozen {
	var f *graph.Frozen
	_ = rp.do("graph.freeze", "graph", func() error {
		f = g.FreezePar(1)
		return nil
	})
	rp.ctr["graph.freezes"]++
	rp.noteCSR(f, false)
	return f
}

// sweepReady materializes the sorted membership ranges, as the engine's
// sweep path does in its build stage.
func (rp *replayer) sweepReady(f *graph.Frozen) {
	_ = rp.do("graph.sort", "graph", func() error {
		f.MaterializeSorted(1)
		return nil
	})
	rp.noteCSR(f, true)
}

// kernel is one search from src on the shared scratch.
type kernel func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error)

// sweep runs `sources` searches on f exactly as the engine's sweeper does
// for realization r of a series seeded with seed: source s draws its
// start node and all search randomness from NewStream(seed, r, s). It
// returns each source's result row, reduced by sample. Heap allocations
// are counted with ReadMemStats (exact, unlike the span-granular
// runtime/metrics counters) around the whole sweep, outside the spans.
func (rp *replayer) sweep(name string, f *graph.Frozen, seed uint64, r, sources int, k kernel, sample func(search.Result) []float64) ([][]float64, error) {
	rows := make([][]float64, sources)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.Mallocs
	for s := 0; s < sources; s++ {
		rng := xm.NewStream(seed, uint64(r), uint64(s))
		src := rng.Intn(f.N())
		start := time.Now()
		id := rp.t.begin("search."+name, "search")
		res, err := k(rp.scratch, f, src, rng)
		rp.t.end(id)
		rp.queryUS = append(rp.queryUS, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
		if n := len(res.Hits); n > 0 {
			rp.ctr["search.hits"] += float64(res.Hits[n-1])
		}
		if n := len(res.Messages); n > 0 {
			rp.ctr["search.messages"] += float64(res.Messages[n-1])
		}
		rows[s] = sample(res)
	}
	runtime.ReadMemStats(&ms)
	rp.ctr["search.allocs"] += float64(ms.Mallocs - a0)
	rp.ctr["search.queries"] += float64(sources)
	return rows, nil
}

// hitsRow and msgsRow sample a result per TTL, as searchSeries and
// messageSeries do.
func hitsRow(res search.Result) []float64 {
	row := make([]float64, len(res.Hits))
	for t := range row {
		row[t] = float64(res.HitsAt(t))
	}
	return row
}

func msgsRow(res search.Result) []float64 {
	row := make([]float64, len(res.Hits))
	for t := range row {
		row[t] = float64(res.MessagesAt(t))
	}
	return row
}

// reduce averages per-realization source rows into a series with
// stats.AggregateSeries, timed as the stats layer, and returns the
// series' Y values from row index firstX on (the engine's first x).
func (rp *replayer) reduce(perReal [][][]float64, firstX int) ([]float64, error) {
	var ys []float64
	err := rp.do("stats.aggregate", "stats", func() error {
		means := make([][]float64, 0, len(perReal))
		for _, rows := range perReal {
			m := make([]float64, len(rows[0]))
			for _, row := range rows {
				for t := range m {
					m[t] += row[t]
				}
			}
			for t := range m {
				m[t] /= float64(len(rows))
			}
			means = append(means, m[firstX:])
		}
		xs := make([]float64, len(means[0]))
		for i := range xs {
			xs[i] = float64(firstX + i)
		}
		s, err := stats.AggregateSeries("", xs, means)
		ys = seriesY(s)
		return err
	})
	return ys, err
}

// seriesY returns a stats series' Y values.
func seriesY(s stats.Series) []float64 {
	ys := make([]float64, len(s.Points))
	for i, p := range s.Points {
		ys[i] = p.Y
	}
	return ys
}

// nfKernel, rwKernel and floodKernel are the FL/NF/RW searches of the
// search figures, as sim's searchCfg.runSearch dispatches them.
func nfKernel(maxTTL, kMin int) kernel {
	return func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
		return s.NormalizedFlood(f, src, maxTTL, kMin, rng)
	}
}

func rwKernel(maxTTL, kMin int) kernel {
	return func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
		res, _, err := s.RandomWalkWithNFBudget(f, src, maxTTL, kMin, rng)
		return res, err
	}
}

func floodKernel(maxTTL int) kernel {
	return func(s *search.Scratch, f *graph.Frozen, src int, _ *xm.RNG) (search.Result, error) {
		return s.Flood(f, src, maxTTL)
	}
}

// fig3 replays sim.Fig3: HAPA at N/10 and N, m=1..3, three cutoffs; each
// series merges its realizations' degree distributions and log-bins them.
func (rp *replayer) fig3(seed uint64) error {
	sc := rp.sc
	for pi, kc := range []int{gen.NoCutoff, 50, 10} {
		id := fmt.Sprintf("fig3%c", 'a'+pi)
		for _, n := range []int{sc.NDegree / 10, sc.NDegree} {
			for _, m := range []int{1, 2, 3} {
				ss := seed + uint64(pi*1000+n+m)
				dists := make([]stats.DegreeDist, sc.Realizations)
				for r := range dists {
					var g *graph.Graph
					err := rp.grow("hapa", n, func() (st gen.Stats, err error) {
						g, st, err = gen.HAPABuild(gen.HAPAConfig{N: n, M: m, KC: kc}, rp.phases(ss, r))
						return st, err
					})
					if err != nil {
						return err
					}
					f := rp.freeze(g)
					_ = rp.do("stats.degree_dist", "stats", func() error {
						dists[r] = stats.NewDegreeDist(f.DegreeHistogram())
						return nil
					})
				}
				var pts []stats.BinnedPoint
				err := rp.do("stats.merge_logbin", "stats", func() (err error) {
					pts, err = stats.LogBin(stats.MergeDegreeDists(dists), degreeBinRatio)
					return err
				})
				if err != nil {
					return err
				}
				ys := make([]float64, len(pts))
				for i, p := range pts {
					ys[i] = p.P
				}
				rp.expect(id, ys)
			}
		}
	}
	return nil
}

// dapaNFRW replays sim's dapaNFRW (Fig. 10 with NF, Fig. 12 with RW): GRN
// substrates, then DAPA overlays over m × kc × τ_sub, each swept.
func (rp *replayer) dapaNFRW(seed uint64, rw bool) error {
	sc := rp.sc
	base := "fig10"
	if rw {
		base = "fig12"
	}
	subSeed := seed ^ 0xda9a
	subs := make([]*graph.Frozen, sc.Realizations)
	for r := range subs {
		err := rp.grow("grn", sc.NSubstrate, func() (gen.Stats, error) {
			f, _, err := gen.GRNFrozen(gen.GRNConfig{N: sc.NSubstrate, MeanDegree: 10}, rp.phases(subSeed, r))
			subs[r] = f
			return gen.Stats{}, err
		})
		if err != nil {
			return err
		}
		rp.noteCSR(subs[r], false)
	}
	panel := 0
	for _, m := range []int{1, 2, 3} {
		k, name := nfKernel(sc.MaxTTLNF, m), "nf"
		if rw {
			k, name = rwKernel(sc.MaxTTLNF, m), "rw"
		}
		for _, kc := range []int{gen.NoCutoff, 50, 10} {
			id := fmt.Sprintf("%s%c", base, 'a'+panel)
			panel++
			for _, tau := range []int{2, 4, 6, 8, 10, 20, 50} {
				ss := seed + uint64(panel*10000+tau)
				perReal := make([][][]float64, sc.Realizations)
				for r := range perReal {
					var ov *gen.Overlay
					err := rp.grow("dapa", sc.NOverlay, func() (st gen.Stats, err error) {
						ov, st, err = gen.DAPABuild(subs[r%len(subs)], gen.DAPAConfig{NOverlay: sc.NOverlay, M: m, KC: kc, TauSub: tau}, rp.phases(ss, r))
						return st, err
					})
					if err != nil {
						return err
					}
					f := rp.freeze(ov.G)
					rp.sweepReady(f)
					if perReal[r], err = rp.sweep(name, f, ss, r, sc.Sources, k, hitsRow); err != nil {
						return err
					}
				}
				ys, err := rp.reduce(perReal, 1)
				if err != nil {
					return err
				}
				rp.expect(id, ys)
			}
		}
	}
	return nil
}

// fig7 replays sim.Fig7: flooding on CSR-native CM over γ × m × kc.
func (rp *replayer) fig7(seed uint64) error {
	sc := rp.sc
	for pi, gamma := range []float64{2.2, 2.6, 3.0} {
		id := fmt.Sprintf("fig7%c", 'a'+pi)
		for _, m := range []int{1, 2, 3} {
			for _, kc := range []int{10, 40, gen.NoCutoff} {
				ss := seed + uint64(pi*10000+m*100+kc)
				perReal := make([][][]float64, sc.Realizations)
				for r := range perReal {
					var f *graph.Frozen
					err := rp.grow("cm", sc.NSearch, func() (st gen.Stats, err error) {
						f, st, err = gen.CMFrozen(gen.CMConfig{N: sc.NSearch, M: m, KC: kc, Gamma: gamma}, rp.phases(ss, r))
						return st, err
					})
					if err != nil {
						return err
					}
					rp.sweepReady(f)
					if perReal[r], err = rp.sweep("flood", f, ss, r, sc.Sources, floodKernel(sc.MaxTTLFlood), hitsRow); err != nil {
						return err
					}
				}
				ys, err := rp.reduce(perReal, 1)
				if err != nil {
					return err
				}
				rp.expect(id, ys)
			}
		}
	}
	return nil
}

// paSweep builds `realizations` PA(n, m, kc) topologies of a series and
// sweeps each, as sweepSeries does for a paTopo factory, and returns the
// reduced series' Y values from row index firstX on.
func (rp *replayer) paSweep(name string, n, m, kc int, seed uint64, k kernel, sample func(search.Result) []float64, firstX int) ([]float64, error) {
	sc := rp.sc
	perReal := make([][][]float64, sc.Realizations)
	for r := range perReal {
		var g *graph.Graph
		err := rp.grow("pa", n, func() (st gen.Stats, err error) {
			g, st, err = gen.PABuild(gen.PAConfig{N: n, M: m, KC: kc}, rp.phases(seed, r))
			return st, err
		})
		if err != nil {
			return nil, err
		}
		f := rp.freeze(g)
		rp.sweepReady(f)
		if perReal[r], err = rp.sweep(name, f, seed, r, sc.Sources, k, sample); err != nil {
			return nil, err
		}
	}
	return rp.reduce(perReal, firstX)
}

// messaging replays sim.Messaging: per (m, kc) an NF message sweep, an NF
// hits sweep and an RW hits sweep, all on the same seed.
func (rp *replayer) messaging(seed uint64) error {
	sc := rp.sc
	for _, m := range []int{1, 3} {
		for _, kc := range []int{10, gen.NoCutoff} {
			ss := seed + uint64(m*100+kc)
			msgs, err := rp.paSweep("nf", sc.NSearch, m, kc, ss, nfKernel(sc.MaxTTLNF, m), msgsRow, 1)
			if err != nil {
				return err
			}
			nfHits, err := rp.paSweep("nf", sc.NSearch, m, kc, ss, nfKernel(sc.MaxTTLNF, m), hitsRow, 1)
			if err != nil {
				return err
			}
			rwHits, err := rp.paSweep("rw", sc.NSearch, m, kc, ss, rwKernel(sc.MaxTTLNF, m), hitsRow, 1)
			if err != nil {
				return err
			}
			rp.expect("messaging-per-request", msgs)
			rp.expect("messaging-per-hit", perHit(msgs, nfHits))
			rp.expect("messaging-per-hit", perHit(msgs, rwHits))
		}
	}
	return nil
}

// perHit divides messages by hits pointwise, skipping points without
// hits, as the messaging spec does.
func perHit(msgs, hits []float64) []float64 {
	var out []float64
	for i, m := range msgs {
		if i < len(hits) && hits[i] != 0 {
			out = append(out, m/hits[i])
		}
	}
	return out
}

// strategyBudgets mirrors sim's message-budget axis of the strategies spec.
func strategyBudgets(n int) []int {
	var out []int
	for _, b := range []int{10, 20, 50, 100, 200, 500, 1000, 2000, 5000} {
		if b <= 4*n {
			out = append(out, b)
		}
	}
	return out
}

// strategies replays sim.Strategies: seven kernels at equal message budget
// on PA m=2, without a cutoff and with kc=10.
func (rp *replayer) strategies(seed uint64) error {
	sc := rp.sc
	const m = 2
	budgets := strategyBudgets(sc.NSearch)
	maxB := budgets[len(budgets)-1]
	ttl := sc.MaxTTLFlood
	variants := []struct {
		name string
		k    kernel
	}{
		{"flood", floodKernel(ttl)},
		{"nf", nfKernel(ttl, m)},
		{"rw", func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
			return s.RandomWalk(f, src, maxB, rng)
		}},
		{"kwalk", func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
			return s.KRandomWalks(f, src, 8, maxB/8+1, rng)
		}},
		{"hds", func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
			return s.HighDegreeWalk(f, src, maxB, rng)
		}},
		{"pf", func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
			return s.ProbabilisticFlood(f, src, ttl, 0.5, rng)
		}},
		{"hybrid", func(s *search.Scratch, f *graph.Frozen, src int, rng *xm.RNG) (search.Result, error) {
			return s.HybridSearch(f, src, 2, 8, maxB/8+1, rng)
		}},
	}
	atBudgets := func(res search.Result) []float64 {
		row := make([]float64, len(budgets))
		for i, b := range budgets {
			for t := range res.Messages {
				if res.Messages[t] <= b && float64(res.Hits[t]) > row[i] {
					row[i] = float64(res.Hits[t])
				}
			}
		}
		return row
	}
	for _, kc := range []int{gen.NoCutoff, 10} {
		id := "strategies-nokc"
		if kc != gen.NoCutoff {
			id = fmt.Sprintf("strategies-kc%d", kc)
		}
		for vi, v := range variants {
			ys, err := rp.paSweep(v.name, sc.NSearch, m, kc, seed+uint64(vi)*7919+uint64(kc), v.k, atBudgets, 0)
			if err != nil {
				return err
			}
			rp.expect(id, ys)
		}
	}
	return nil
}

// attack replays sim.Attack: PA m=2 with and without kc=10 under random
// failures, degree attacks and batched betweenness attacks. Builds draw
// from the phase streams, removal orders from the realization's legacy
// stream, as forEachRealization hands them out.
func (rp *replayer) attack(seed uint64) error {
	sc := rp.sc
	pivots := sc.BCPivots
	if pivots == 0 {
		pivots = sfmetrics.DefaultBetweennessPivots
	}
	type run struct {
		kc    int
		strat sfmetrics.RemovalStrategy
		name  string
	}
	var runs []run
	for _, kc := range []int{gen.NoCutoff, 10} {
		runs = append(runs, run{kc, sfmetrics.RemoveRandom, "random"}, run{kc, sfmetrics.RemoveHighestDegree, "degree"})
	}
	for _, kc := range []int{gen.NoCutoff, 10} {
		runs = append(runs, run{kc, sfmetrics.RemoveHighestBetweenness, "betweenness"})
	}
	for _, ru := range runs {
		ss := seed + uint64(ru.kc)*31 + uint64(ru.strat)
		rngs := xm.New(ss).SplitN(sc.Realizations)
		curves := make([][]float64, sc.Realizations)
		seCurves := make([][]float64, sc.Realizations)
		for r := range curves {
			var g *graph.Graph
			err := rp.grow("pa", sc.NSearch, func() (st gen.Stats, err error) {
				g, st, err = gen.PABuild(gen.PAConfig{N: sc.NSearch, M: 2, KC: ru.kc}, rp.phases(ss, r))
				return st, err
			})
			if err != nil {
				return err
			}
			var (
				pts   []sfmetrics.RobustnessPoint
				steps []sfmetrics.BetweennessStep
			)
			err = rp.do("metrics.robustness."+ru.name, "metrics", func() (err error) {
				cfg := sfmetrics.RobustnessConfig{Strategy: ru.strat, StepFrac: 0.02, MaxFrac: 0.4}
				if ru.strat == sfmetrics.RemoveHighestBetweenness {
					cfg.BetweennessPivots, cfg.BatchedBetweenness = pivots, true
				}
				pts, steps, err = sfmetrics.RobustnessWith(g, cfg, rngs[r])
				return err
			})
			if err != nil {
				return err
			}
			rp.ctr["metrics.steps"] += float64(len(pts))
			curves[r] = make([]float64, len(pts))
			for i, p := range pts {
				curves[r][i] = p.GiantFrac
			}
			seCurves[r] = make([]float64, len(steps))
			for i, s := range steps {
				seCurves[r][i] = s.MeanSE
			}
		}
		if err := rp.meanCurve(curves); err != nil {
			return err
		}
		if ru.strat == sfmetrics.RemoveHighestBetweenness {
			if err := rp.meanCurve(seCurves); err != nil {
				return err
			}
		}
	}
	return nil
}

// meanCurve averages realization curves over their common length with
// stats.AggregateSeries, timed as the stats layer, and expects the result
// as the attack figure's next series.
func (rp *replayer) meanCurve(curves [][]float64) error {
	return rp.do("stats.aggregate", "stats", func() error {
		n := len(curves[0])
		for _, c := range curves {
			n = min(n, len(c))
		}
		xs := make([]float64, n)
		for r := range curves {
			curves[r] = curves[r][:n]
		}
		s, err := stats.AggregateSeries("", xs, curves)
		rp.expect("attack", seriesY(s))
		return err
	})
}
