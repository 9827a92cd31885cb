package gen

import (
	"fmt"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// LocalEventsConfig parameterizes the Albert–Barabási "local events"
// evolving-network model (Phys. Rev. Lett. 85, 5234 — cited as [7] and
// listed in §III-C as the dynamic edge-rewiring alternative to hard
// cutoffs). Each time step performs exactly one of:
//
//	with probability P:      add M new edges between existing nodes
//	                         (one endpoint uniform, the other preferential),
//	with probability Q:      rewire M edges (detach a uniformly chosen
//	                         edge end and re-attach it preferentially),
//	with probability 1-P-Q:  add a new node with M preferential links.
//
// Varying P and Q sweeps the degree exponent continuously — the model's
// point, and the reason the paper lists it next to nonlinear PA.
type LocalEventsConfig struct {
	// N is the target number of nodes.
	N int
	// M is the number of links per event.
	M int
	// KC is the hard cutoff; NoCutoff (0) disables it.
	KC int
	// P and Q are the edge-addition and rewiring probabilities;
	// P + Q must be < 1 so the network keeps growing.
	P, Q float64
}

func (c LocalEventsConfig) validate() error {
	if err := validateGrowth(c.N, c.M, c.KC); err != nil {
		return err
	}
	if c.P < 0 || c.Q < 0 || c.P+c.Q >= 1 {
		return fmt.Errorf("%w: p=%v q=%v need p,q >= 0 and p+q < 1", ErrBadGamma, c.P, c.Q)
	}
	return nil
}

// LocalEvents generates an Albert–Barabási local-events network. Node
// events, edge events, and rewiring events all respect the hard cutoff:
// a preferential target at kc is redrawn.
func LocalEvents(cfg LocalEventsConfig, rng *xrand.RNG) (*graph.Graph, Stats, error) {
	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	rng = defaultRNG(rng)
	g := graph.New(cfg.M + 1)
	if err := seedClique(g, cfg.M); err != nil {
		return nil, st, err
	}

	// Stub list for O(1) preferential draws, kept in sync with g.
	stubs := make([]int32, 0, 4*cfg.M*cfg.N)
	for u := 0; u < g.N(); u++ {
		for i := 0; i < g.Degree(u); i++ {
			stubs = append(stubs, int32(u))
		}
	}
	// removeStub deletes one occurrence of u from the stub list.
	removeStub := func(u int32) {
		for i, s := range stubs {
			if s == u {
				stubs[i] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				return
			}
		}
	}
	// preferential draws an eligible target for `from` (not adjacent, not
	// self, below cutoff); returns -1 if none found within budget.
	preferential := func(from int) int {
		for attempt := 0; attempt < paAttemptBudget; attempt++ {
			st.Attempts++
			cand := int(stubs[rng.Intn(len(stubs))])
			if cand != from && cutoffOK(g.Degree(cand), cfg.KC) && !g.HasEdge(from, cand) {
				return cand
			}
		}
		if cand := paFallback(g, from, cfg.KC, rng); cand >= 0 {
			st.Fallbacks++
			return cand
		}
		return -1
	}

	for g.N() < cfg.N {
		r := rng.Float64()
		switch {
		case r < cfg.P:
			// Add M edges between existing nodes.
			for j := 0; j < cfg.M; j++ {
				from := rng.Intn(g.N())
				if !cutoffOK(g.Degree(from), cfg.KC) {
					continue
				}
				to := preferential(from)
				if to < 0 {
					st.UnfilledStubs++
					continue
				}
				mustEdge(g, from, to)
				stubs = append(stubs, int32(from), int32(to))
			}
		case r < cfg.P+cfg.Q:
			// Rewire M edges: pick a random node, detach one of its
			// links, re-attach preferentially.
			for j := 0; j < cfg.M; j++ {
				from := rng.Intn(g.N())
				old := g.RandomNeighbor(from, rng)
				if old < 0 {
					continue
				}
				to := preferential(from)
				if to < 0 {
					st.UnfilledStubs++
					continue
				}
				g.RemoveEdge(from, old)
				removeStub(int32(old))
				removeStub(int32(from))
				mustEdge(g, from, to)
				stubs = append(stubs, int32(from), int32(to))
			}
		default:
			// Grow: a new node with M preferential links (plain PA step).
			u := g.AddNode()
			for j := 0; j < cfg.M; j++ {
				to := preferential(u)
				if to < 0 {
					st.UnfilledStubs++
					continue
				}
				mustEdge(g, u, to)
				stubs = append(stubs, int32(u), int32(to))
			}
		}
	}
	return g, st, nil
}
