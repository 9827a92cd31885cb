package gen

import (
	"fmt"
	"math"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// This file implements the modified preferential-attachment models the
// paper lists as alternatives for controlling the degree exponent without
// hard cutoffs (§III-C): nonlinear preferential attachment
// (Krapivsky–Redner–Leyvraz [52,53]) and the fitness model
// (Bianconi–Barabási [54,55]). They let users trade the cutoff spike of
// PA-with-kc against intrinsically sublinear hub growth.

// NLPAConfig parameterizes nonlinear preferential attachment: a joining
// node picks targets with probability proportional to k^Alpha.
type NLPAConfig struct {
	// N is the final number of nodes (including the m+1 seed clique).
	N int
	// M is the number of stubs per joining node.
	M int
	// KC is the hard cutoff; NoCutoff (0) disables it.
	KC int
	// Alpha is the attachment-kernel exponent: 1 recovers linear PA,
	// Alpha < 1 is sublinear (stretched-exponential degree distribution,
	// no giant hubs), Alpha > 1 is superlinear (winner-take-all
	// condensation). Must be >= 0.
	Alpha float64
}

func (c NLPAConfig) validate() error {
	if err := validateGrowth(c.N, c.M, c.KC); err != nil {
		return err
	}
	if c.Alpha < 0 {
		return fmt.Errorf("%w: alpha=%v must be >= 0", ErrBadGamma, c.Alpha)
	}
	return nil
}

// NLPA generates a nonlinear preferential-attachment network. Selection
// uses rejection sampling against the stub list: a stub draw is
// proportional to k, and accepting it with probability k^(Alpha-1)/norm
// re-weights the draw to k^Alpha (norm keeps the acceptance in (0,1]:
// for Alpha <= 1 it is m^(Alpha-1); for Alpha > 1 it tracks the current
// maximum degree).
func NLPA(cfg NLPAConfig, rng *xrand.RNG) (*graph.Graph, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	rng = defaultRNG(rng)
	g := graph.New(cfg.N)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, st, err
	}

	stubs := make([]int32, 0, 2*cfg.M*cfg.N)
	for u := 0; u < g.N(); u++ {
		for i := 0; i < g.Degree(u); i++ {
			stubs = append(stubs, int32(u))
		}
	}
	maxDeg := g.MaxDegree()

	a := cfg.Alpha - 1
	for i := cfg.M + 1; i < cfg.N; i++ {
		for j := 0; j < cfg.M; j++ {
			placed := false
			for attempt := 0; attempt < paAttemptBudget; attempt++ {
				st.Attempts++
				cand := int(stubs[rng.Intn(len(stubs))])
				k := g.Degree(cand)
				if cand == i || !cutoffOK(k, cfg.KC) || linked(g, i, cand) {
					continue
				}
				// Re-weight k -> k^Alpha.
				var norm float64
				if cfg.Alpha <= 1 {
					norm = math.Pow(float64(cfg.M), a) // max of k^a over k >= m
					if cfg.M == 0 {
						norm = 1
					}
				} else {
					norm = math.Pow(float64(maxDeg), a)
				}
				if norm > 0 && rng.Float64() >= math.Pow(float64(k), a)/norm {
					continue
				}
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
				if d := g.Degree(cand); d > maxDeg {
					maxDeg = d
				}
				placed = true
				break
			}
			if placed {
				continue
			}
			if cand := paFallback(g, i, cfg.KC, rng); cand >= 0 {
				st.Fallbacks++
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
				if d := g.Degree(cand); d > maxDeg {
					maxDeg = d
				}
			} else {
				st.UnfilledStubs++
			}
		}
	}
	return g, st, nil
}

// FitnessConfig parameterizes the Bianconi–Barabási fitness model: each
// node draws a fitness η from a distribution at birth and attracts links
// with probability proportional to η·k, so young-but-fit nodes can
// overtake old hubs ("competition and multiscaling", [54]).
type FitnessConfig struct {
	// N is the final number of nodes (including the m+1 seed clique).
	N int
	// M is the number of stubs per joining node.
	M int
	// KC is the hard cutoff; NoCutoff (0) disables it.
	KC int
	// Fitness draws one fitness value per node; nil means Uniform(0,1],
	// the canonical choice. Values must be in (0, 1].
	Fitness func(rng *xrand.RNG) float64
}

func (c FitnessConfig) validate() error { return validateGrowth(c.N, c.M, c.KC) }

// Fitness generates a Bianconi–Barabási network with hard-cutoff support.
// Selection is stub sampling (∝ k) thinned by the candidate's fitness
// (acceptance η ∈ (0,1]), which re-weights the draw to η·k.
// It returns the graph, the per-node fitness values, and generation stats.
func Fitness(cfg FitnessConfig, rng *xrand.RNG) (*graph.Graph, []float64, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, nil, st, err
	}
	rng = defaultRNG(rng)
	draw := cfg.Fitness
	if draw == nil {
		draw = func(rng *xrand.RNG) float64 {
			// Uniform(0,1]: avoid exactly-zero fitness, which would make
			// a node permanently unattractive and stall rejection loops.
			return 1 - rng.Float64()
		}
	}
	g := graph.New(cfg.N)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, nil, st, err
	}
	eta := make([]float64, cfg.N)
	for u := range eta {
		f := draw(rng)
		if f <= 0 || f > 1 {
			return nil, nil, st, fmt.Errorf("%w: fitness %v outside (0,1]", ErrBadGamma, f)
		}
		eta[u] = f
	}

	stubs := make([]int32, 0, 2*cfg.M*cfg.N)
	for u := 0; u < g.N(); u++ {
		for i := 0; i < g.Degree(u); i++ {
			stubs = append(stubs, int32(u))
		}
	}
	for i := cfg.M + 1; i < cfg.N; i++ {
		for j := 0; j < cfg.M; j++ {
			placed := false
			for attempt := 0; attempt < paAttemptBudget; attempt++ {
				st.Attempts++
				cand := int(stubs[rng.Intn(len(stubs))])
				if cand == i || !cutoffOK(g.Degree(cand), cfg.KC) || linked(g, i, cand) {
					continue
				}
				if rng.Float64() >= eta[cand] {
					continue
				}
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
				placed = true
				break
			}
			if placed {
				continue
			}
			if cand := fitnessFallback(g, i, cfg.KC, eta, rng); cand >= 0 {
				st.Fallbacks++
				mustEdge(g, i, cand)
				stubs = append(stubs, int32(i), int32(cand))
			} else {
				st.UnfilledStubs++
			}
		}
	}
	return g, eta, st, nil
}

// fitnessFallback draws an eligible candidate exactly ∝ η·k.
func fitnessFallback(g *graph.Graph, i, kc int, eta []float64, rng *xrand.RNG) int {
	var cands []int
	var weights []float64
	for u := 0; u < i; u++ {
		if k := g.Degree(u); k > 0 && cutoffOK(k, kc) && !linked(g, i, u) {
			cands = append(cands, u)
			weights = append(weights, eta[u]*float64(k))
		}
	}
	idx := rng.Choose(weights)
	if idx < 0 {
		return -1
	}
	return cands[idx]
}
