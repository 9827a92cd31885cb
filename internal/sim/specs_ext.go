package sim

// Extension experiments beyond the paper's evaluation section, each tied
// to a claim in the paper's text:
//
//   - Attack: §III's "robust yet fragile" motivation — hard cutoffs remove
//     the super-hubs targeted attacks decapitate, so they should improve
//     attack tolerance. (The paper motivates cutoffs partly by this but
//     never measures it.)
//   - Delivery: Eqs. 6-7 — flooding delivery time T_N = log N; random-walk
//     delivery time T_N ~ N^0.79 on γ≈2.1 networks.
//   - KWalk: §V-B1's conjecture that "multiple RWs would perform more
//     similar to NF" at the same message budget.

import (
	"fmt"
	"math"
	"strings"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/metrics"
	"scalefree/internal/search"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

// Attack measures giant-component survival under random failures vs
// targeted hub attacks, on PA topologies with and without a hard cutoff.
func Attack(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "attack",
		Title:  "Robustness: giant component vs removed fraction (PA, m=2)",
		XLabel: "fraction removed", YLabel: "giant component fraction",
		Notes: "hard cutoffs blunt targeted attacks by removing super-hubs",
	}
	for _, kc := range []int{gen.NoCutoff, 10} {
		for _, strat := range []metrics.RemovalStrategy{metrics.RemoveRandom, metrics.RemoveHighestDegree} {
			strat := strat
			label := fmt.Sprintf("%s, %s", cutoffLabel(kc), strat)
			curves := make([][]float64, sc.Realizations)
			var xs []float64
			err := forEachRealization(engineOpts{rc: sc.Run}, sc.Workers, sc.GenWorkers, sc.Realizations, seed+uint64(kc)*31+uint64(strat), func(r int, b *builder) error {
				g, _, err := gen.PABuild(gen.PAConfig{N: sc.NSearch, M: 2, KC: kc}, b.gen())
				if err != nil {
					return err
				}
				pts, err := metrics.Robustness(g, strat, 0.02, 0.4, b.rng)
				if err != nil {
					return err
				}
				row := make([]float64, len(pts))
				for i, p := range pts {
					row[i] = p.GiantFrac
				}
				curves[r] = row
				if r == 0 {
					xs = make([]float64, len(pts))
					for i, p := range pts {
						xs[i] = p.RemovedFrac
					}
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("attack %s: %w", label, err)
			}
			// Realizations share the removal schedule (same N, same step),
			// so rows align.
			minLen := len(curves[0])
			for _, row := range curves {
				if len(row) < minLen {
					minLen = len(row)
				}
			}
			s := Series{Label: label}
			col := make([]float64, len(curves))
			for i := 0; i < minLen; i++ {
				for r := range curves {
					col[r] = curves[r][i]
				}
				s.Points = append(s.Points, Point{X: xs[i], Y: stats.Mean(col), Err: stats.StdDev(col)})
			}
			fig.Series = append(fig.Series, s)
		}
	}
	// Betweenness attack — the strongest variant, feasible at scale only
	// through the batched Brandes–Pich estimator: one pivot-sampled pass
	// per measurement step prices every node, the step's removals follow
	// the estimated scores, and each step's mean standard error is
	// published as its own series (the estimator's uncertainty column).
	pivots := sc.BCPivots
	if pivots == 0 {
		pivots = metrics.DefaultBetweennessPivots
	}
	for _, kc := range []int{gen.NoCutoff, 10} {
		strat := metrics.RemoveHighestBetweenness
		label := fmt.Sprintf("%s, %s (batched, %d pivots)", cutoffLabel(kc), strat, pivots)
		curves := make([][]float64, sc.Realizations)
		seCurves := make([][]float64, sc.Realizations)
		var xs, seXs []float64
		err := forEachRealization(engineOpts{rc: sc.Run}, sc.Workers, sc.GenWorkers, sc.Realizations, seed+uint64(kc)*31+uint64(strat), func(r int, b *builder) error {
			g, _, err := gen.PABuild(gen.PAConfig{N: sc.NSearch, M: 2, KC: kc}, b.gen())
			if err != nil {
				return err
			}
			pts, steps, err := metrics.RobustnessWith(g, metrics.RobustnessConfig{
				Strategy: strat, StepFrac: 0.02, MaxFrac: 0.4,
				BetweennessPivots: pivots, BatchedBetweenness: true,
			}, b.rng)
			if err != nil {
				return err
			}
			row := make([]float64, len(pts))
			for i, p := range pts {
				row[i] = p.GiantFrac
			}
			curves[r] = row
			seRow := make([]float64, len(steps))
			for i, s := range steps {
				seRow[i] = s.MeanSE
			}
			seCurves[r] = seRow
			if r == 0 {
				xs = make([]float64, len(pts))
				for i, p := range pts {
					xs[i] = p.RemovedFrac
				}
				seXs = make([]float64, len(steps))
				for i, s := range steps {
					seXs[i] = s.RemovedFrac
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("attack %s: %w", label, err)
		}
		appendMeanSeries := func(label string, xs []float64, curves [][]float64) {
			minLen := len(curves[0])
			for _, row := range curves {
				if len(row) < minLen {
					minLen = len(row)
				}
			}
			s := Series{Label: label}
			col := make([]float64, len(curves))
			for i := 0; i < minLen; i++ {
				for r := range curves {
					col[r] = curves[r][i]
				}
				s.Points = append(s.Points, Point{X: xs[i], Y: stats.Mean(col), Err: stats.StdDev(col)})
			}
			fig.Series = append(fig.Series, s)
		}
		appendMeanSeries(label, xs, curves)
		appendMeanSeries(fmt.Sprintf("%s, %s stderr (removed nodes)", cutoffLabel(kc), strat), seXs, seCurves)
	}
	fig.Notes += fmt.Sprintf("; betweenness series use batched Brandes-Pich estimates (%d pivots, scores scaled N/pivots, recomputed once per 2%% step) with per-step mean stderr of the removed nodes' scores reported as the stderr series", pivots)
	return []Figure{fig}, nil
}

// Delivery measures mean delivery time vs network size for flooding and
// random walks on γ=2.2 CM giants, checking the functional forms of
// Eqs. 6 and 7. The fitted RW scaling exponent is recorded in Notes
// (Adamic et al. predict ~0.79 at γ=2.1).
func Delivery(sc Scale, seed uint64) ([]Figure, error) {
	sizes := []int{sc.NSearch / 4, sc.NSearch / 2, sc.NSearch, sc.NSearch * 2}
	fig := Figure{
		ID:     "delivery",
		Title:  "Delivery time vs N (CM gamma=2.2): FL ~ logN, RW ~ N^0.79",
		XLabel: "N", YLabel: "mean delivery time", LogX: true, LogY: true,
	}
	flSeries := Series{Label: "FL (shortest path)"}
	rwSeries := Series{Label: "RW (first arrival)"}
	var truncNotes []string
	for si, n := range sizes {
		pairs := sc.Sources
		flTimes := make([]int, sc.Realizations*pairs)
		flFound := make([]bool, sc.Realizations*pairs)
		rwTimes := make([]int, sc.Realizations*pairs)
		rwFound := make([]bool, sc.Realizations*pairs)
		rwTried := make([]bool, sc.Realizations*pairs)
		// The paper's budget is 200·N steps per pair; WalkCap bounds it so
		// xl sizes stay linear-time. A capped walk that never delivers is
		// a truncation: excluded from the mean, counted in the notes.
		budget := 200 * n
		if sc.WalkCap > 0 && budget > sc.WalkCap {
			budget = sc.WalkCap
		}
		err := forEachRealizationPipeline(engineOpts{rc: sc.Run}, sc.Workers, sc.SourceShards, sc.GenWorkers, sc.Realizations, seed+uint64(si)*977, func(r int, b *builder) (*graph.Frozen, error) {
			f, _, err := gen.CMFrozen(gen.CMConfig{N: n, M: 2, Gamma: 2.2}, b.gen())
			if err != nil {
				return nil, err
			}
			// CSR end to end: the CM realization is built straight into
			// frozen form and the giant component is carved out of it with
			// InducedFrozen. One sweep-ready snapshot serves every
			// delivery pair.
			fsub, _ := f.InducedFrozen(f.GiantComponent())
			return fsub, nil
		}, func(r int, fsub *graph.Frozen, sw *sweeper) error {
			return sw.Sources(uint64(r), pairs, func(_, i int, rng *xrand.RNG, scratch *search.Scratch) error {
				src, dst := rng.Intn(fsub.N()), rng.Intn(fsub.N())
				if src == dst {
					return nil // slot stays not-found, as the serial skip did
				}
				fd, err := scratch.FloodDelivery(fsub, src, dst, 60)
				if err != nil {
					return err
				}
				if fd.Found {
					flTimes[r*pairs+i], flFound[r*pairs+i] = fd.Time, true
				}
				rwTried[r*pairs+i] = true
				rd, err := search.RandomWalkDelivery(fsub, src, dst, budget, rng)
				if err != nil {
					return err
				}
				if rd.Found {
					rwTimes[r*pairs+i], rwFound[r*pairs+i] = rd.Time, true
				}
				return nil
			})
		})
		if err != nil {
			return nil, err
		}
		flMeans := make([]float64, sc.Realizations)
		rwMeans := make([]float64, sc.Realizations)
		for r := 0; r < sc.Realizations; r++ {
			var flSum, rwSum float64
			flN, rwN := 0, 0
			for i := 0; i < pairs; i++ {
				if flFound[r*pairs+i] {
					flSum += float64(flTimes[r*pairs+i])
					flN++
				}
				if rwFound[r*pairs+i] {
					rwSum += float64(rwTimes[r*pairs+i])
					rwN++
				}
			}
			if flN == 0 || rwN == 0 {
				return nil, fmt.Errorf("no deliveries at n=%d", n)
			}
			flMeans[r] = flSum / float64(flN)
			rwMeans[r] = rwSum / float64(rwN)
		}
		if sc.WalkCap > 0 {
			tried, trunc := 0, 0
			for i := range rwTried {
				if rwTried[i] {
					tried++
					if !rwFound[i] {
						trunc++
					}
				}
			}
			if trunc > 0 {
				truncNotes = append(truncNotes, fmt.Sprintf("N=%d: %d/%d walks truncated at %d steps", n, trunc, tried, budget))
			}
		}
		flSeries.Points = append(flSeries.Points, Point{X: float64(n), Y: stats.Mean(flMeans), Err: stats.StdDev(flMeans)})
		rwSeries.Points = append(rwSeries.Points, Point{X: float64(n), Y: stats.Mean(rwMeans), Err: stats.StdDev(rwMeans)})
	}
	fig.Series = []Series{flSeries, rwSeries}

	// Fit RW scaling exponent: slope of log T vs log N.
	var xs, ys []float64
	for _, p := range rwSeries.Points {
		if p.Y > 0 {
			xs = append(xs, math.Log(p.X))
			ys = append(ys, math.Log(p.Y))
		}
	}
	if len(xs) >= 2 {
		slope := (ys[len(ys)-1] - ys[0]) / (xs[len(xs)-1] - xs[0])
		fig.Notes = fmt.Sprintf("RW scaling exponent measured %.2f (Eq. 7 predicts 0.79 at gamma=2.1); FL grows ~logN", slope)
	}
	if sc.WalkCap > 0 {
		note := fmt.Sprintf("RW budget capped at min(200*N, %d) steps per pair", sc.WalkCap)
		if len(truncNotes) > 0 {
			note += "; truncated walks excluded from means: " + strings.Join(truncNotes, ", ")
		} else {
			note += "; no walks truncated"
		}
		if fig.Notes != "" {
			fig.Notes += "; "
		}
		fig.Notes += note
	}
	return []Figure{fig}, nil
}

// KWalk compares NF, a single NF-budget walk, and k parallel walkers at
// the same total message budget — quantifying §V-B1's "multiple RWs would
// perform more similar to NF".
func KWalk(sc Scale, seed uint64) ([]Figure, error) {
	fig := Figure{
		ID:     "kwalk",
		Title:  "Multiple random walkers vs NF at equal message budget (PA, m=2, kc=40)",
		XLabel: "tau", YLabel: "number of hits",
	}
	const kWalkers = 8
	factory := paTopo(sc.NSearch, 2, 40)
	variants := []struct {
		label string
		run   func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) ([]float64, error)
	}{
		{"NF", func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) ([]float64, error) {
			res, err := scratch.NormalizedFlood(f, src, sc.MaxTTLNF, 2, rng)
			if err != nil {
				return nil, err
			}
			return hitsPerTau(res, sc.MaxTTLNF), nil
		}},
		{"1 walker (NF budget)", func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) ([]float64, error) {
			rw, nf, err := scratch.RandomWalkWithNFBudget(f, src, sc.MaxTTLNF, 2, rng)
			if err != nil {
				return nil, err
			}
			_ = nf
			return hitsPerTau(rw, sc.MaxTTLNF), nil
		}},
		{fmt.Sprintf("%d walkers (NF budget)", kWalkers), func(scratch *search.Scratch, f *graph.Frozen, src int, rng *xrand.RNG) ([]float64, error) {
			nf, err := scratch.NormalizedFlood(f, src, sc.MaxTTLNF, 2, rng)
			if err != nil {
				return nil, err
			}
			// Copy the NF budget curve out: the walker call below recycles
			// the scratch buffers nf aliases.
			msgs := make([]int, sc.MaxTTLNF+1)
			for t := range msgs {
				msgs[t] = nf.MessagesAt(t)
			}
			steps := msgs[sc.MaxTTLNF] / kWalkers
			if steps < 1 {
				steps = 1
			}
			kw, err := scratch.KRandomWalks(f, src, kWalkers, steps, rng)
			if err != nil {
				return nil, err
			}
			out := make([]float64, sc.MaxTTLNF+1)
			for t := 0; t <= sc.MaxTTLNF; t++ {
				out[t] = float64(kw.HitsAt(msgs[t] / kWalkers))
			}
			return out, nil
		}},
	}
	for vi, v := range variants {
		v := v
		perSource := make([][]float64, sc.Realizations*sc.Sources)
		err := forEachRealizationPipeline(engineOpts{rc: sc.Run}, sc.Workers, sc.SourceShards, sc.GenWorkers, sc.Realizations, seed+uint64(vi)*4099, func(r int, b *builder) (*graph.Frozen, error) {
			return sweepTopo(factory, r, b)
		}, func(r int, f *graph.Frozen, sw *sweeper) error {
			return sw.Sources(uint64(r), sc.Sources, func(_, s int, rng *xrand.RNG, scratch *search.Scratch) error {
				row, err := v.run(scratch, f, rng.Intn(f.N()), rng)
				if err != nil {
					return err
				}
				perSource[r*sc.Sources+s] = row
				return nil
			})
		})
		if err != nil {
			return nil, fmt.Errorf("kwalk %s: %w", v.label, err)
		}
		s, err := aggregate(v.label, meanRows(perSource, sc.Realizations, sc.Sources), 1)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{fig}, nil
}

func hitsPerTau(res search.Result, maxTTL int) []float64 {
	out := make([]float64, maxTTL+1)
	for t := 0; t <= maxTTL; t++ {
		out[t] = float64(res.HitsAt(t))
	}
	return out
}
