// Package graph implements the undirected-graph engine underlying every
// topology generator and search algorithm in this repository.
//
// Design goals, in order:
//
//  1. Predictable performance at paper scale (N = 10^5 nodes, ~3·10^5 edges):
//     amortized O(1) edge insertion, O(1) random-neighbor selection,
//     membership tests in O(min(deg u, deg v)), O(V+E) traversals. The
//     growth models only ever ask whether the joining node (at most m
//     links) already links to a candidate, so a short adjacency scan beats
//     a global hash probe there.
//  2. Multigraph tolerance: the configuration model (Appendix B of the
//     paper) wires random stub pairs first and deletes self-loops and
//     multi-edges afterwards, so the structure must represent them
//     faithfully until Simplify is called.
//  3. Deterministic iteration: neighbor order is insertion order, so a
//     fixed RNG seed reproduces identical graphs and search traces.
//
// Nodes are dense integer IDs 0..N-1. Adjacency is stored as per-node
// neighbor slices (int32 to halve memory at paper scale) and nothing else:
// edge multiplicities are counted off the lists when asked for. Once a
// topology stops mutating, Freeze snapshots it into the CSR Frozen form
// (frozen.go) — the flat read path every search kernel and structural
// metric runs on.
package graph

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNodeRange is returned when an operation references a node ID outside
// [0, N).
var ErrNodeRange = errors.New("graph: node out of range")

// Graph is an undirected graph (optionally a multigraph) over dense node IDs
// 0..N-1. The zero value is an empty graph with no nodes; use New to
// pre-allocate. Graph is not safe for concurrent mutation; concurrent reads
// are safe.
type Graph struct {
	adj   [][]int32
	edges int // number of edges counting multiplicity
}

// New returns a graph with n isolated nodes.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges, counting multiplicity. A self-loop counts
// as one edge.
func (g *Graph) M() int { return g.edges }

// AddNode appends an isolated node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// has reports whether u is a valid node ID.
func (g *Graph) has(u int) bool { return uint(u) < uint(len(g.adj)) }

// AddEdge inserts an undirected edge {u,v}. Parallel edges and self-loops
// are permitted (the configuration model needs them); use HasEdge to guard
// when building simple graphs. A self-loop appears twice in u's adjacency
// list, following the degree convention deg(u) += 2.
func (g *Graph) AddEdge(u, v int) error {
	if !g.has(u) || !g.has(v) {
		bad := u
		if g.has(u) {
			bad = v
		}
		return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, bad, len(g.adj))
	}
	ui, vi := int32(u), int32(v)
	g.adj[u] = append(g.adj[u], vi)
	if u == v {
		g.adj[u] = append(g.adj[u], vi)
	} else {
		g.adj[v] = append(g.adj[v], ui)
	}
	g.edges++
	return nil
}

// RemoveEdge deletes one copy of edge {u,v} if present, reporting whether an
// edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !g.has(u) || !g.has(v) || !g.removeOneFromAdj(u, int32(v)) {
		return false
	}
	// Adjacency entries come in matched pairs (v in u's list, u in v's;
	// or two u entries for a self-loop), so the partner is present.
	g.removeOneFromAdj(v, int32(u))
	g.edges--
	return true
}

// removeOneFromAdj removes a single occurrence of w from u's adjacency via
// swap-with-last (order of remaining neighbors is perturbed
// deterministically), reporting whether w was present.
func (g *Graph) removeOneFromAdj(u int, w int32) bool {
	a := g.adj[u]
	for i, x := range a {
		if x == w {
			a[i] = a[len(a)-1]
			g.adj[u] = a[:len(a)-1]
			return true
		}
	}
	return false
}

// shorterList returns the shorter of u's and v's adjacency lists and the
// entry that stands for the other endpoint in it; both IDs must be valid.
func (g *Graph) shorterList(u, v int) ([]int32, int32) {
	if a, b := g.adj[u], g.adj[v]; len(b) < len(a) {
		return b, int32(u)
	}
	return g.adj[u], int32(v)
}

// HasEdge reports whether at least one edge {u,v} exists, by scanning the
// shorter of the two adjacency lists.
func (g *Graph) HasEdge(u, v int) bool {
	if !g.has(u) || !g.has(v) {
		return false
	}
	a, w := g.shorterList(u, v)
	return slices.Contains(a, w)
}

// EdgeMultiplicity returns the number of parallel edges between u and v
// (for u == v, the number of self-loops: each one is two adjacency
// entries).
func (g *Graph) EdgeMultiplicity(u, v int) int {
	if !g.has(u) || !g.has(v) {
		return 0
	}
	a, w := g.shorterList(u, v)
	c := 0
	for _, x := range a {
		if x == w {
			c++
		}
	}
	if u == v {
		c /= 2
	}
	return c
}

// Degree returns the degree of u; self-loops count twice. Out-of-range
// nodes have degree 0.
func (g *Graph) Degree(u int) int {
	if !g.has(u) {
		return 0
	}
	return len(g.adj[u])
}

// Neighbors returns u's adjacency list. The returned slice is the internal
// storage: callers must not mutate it and must not hold it across
// mutations. Self-loops appear twice; parallel edges appear per copy.
func (g *Graph) Neighbors(u int) []int32 {
	if !g.has(u) {
		return nil
	}
	return g.adj[u]
}

// NeighborAt returns the i-th neighbor of u (insertion order). It is the
// O(1) primitive behind random-neighbor hops in HAPA and random walks.
func (g *Graph) NeighborAt(u, i int) int {
	return int(g.adj[u][i])
}

// TotalDegree returns the sum of all node degrees (2·M for a simple graph).
func (g *Graph) TotalDegree() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total
}

// MinDegree returns the smallest degree over all nodes, or 0 for an empty
// graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	minDeg := len(g.adj[0])
	for _, a := range g.adj[1:] {
		if len(a) < minDeg {
			minDeg = len(a)
		}
	}
	return minDeg
}

// MaxDegree returns the largest degree over all nodes, or 0 for an empty
// graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, a := range g.adj {
		if len(a) > maxDeg {
			maxDeg = len(a)
		}
	}
	return maxDeg
}

// DegreeSequence returns every node's degree, indexed by node ID.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, len(g.adj))
	for u, a := range g.adj {
		seq[u] = len(a)
	}
	return seq
}

// DegreeHistogram returns counts[k] = number of nodes with degree k.
func (g *Graph) DegreeHistogram() []int {
	h := make([]int, g.MaxDegree()+1)
	for _, a := range g.adj {
		h[len(a)]++
	}
	return h
}

// Simplify removes all self-loops and collapses parallel edges to single
// edges, returning how many of each were deleted. This is the cleanup step
// of the configuration model (Appendix B): "after this procedure we simply
// delete the multiple connections and self-loops".
//
// Edges are processed in ascending (min, max) endpoint order so the
// post-cleanup adjacency order — and therefore every downstream
// order-sensitive traversal — is identical across runs (the package's
// determinism guarantee). Node u's keys (u, v≥u) are read off u's list
// just before u's turn: deletions for earlier keys (u', v) with u' < u
// only ever take u' entries out of u's list, so the v≥u half, and its
// multiplicities, are still those of the input.
func (g *Graph) Simplify() (selfLoops, multiEdges int) {
	var half []int32
	for u := range g.adj {
		half = half[:0]
		for _, v := range g.adj[u] {
			if int(v) >= u {
				half = append(half, v)
			}
		}
		slices.Sort(half)
		for i := 0; i < len(half); {
			v := half[i]
			j := i + 1
			for j < len(half) && half[j] == v {
				j++
			}
			c := j - i
			if int(v) == u {
				// c entries are c/2 self-loops; delete them all.
				for k := 0; k < c/2; k++ {
					selfLoops++
					g.RemoveEdge(u, u)
				}
			} else {
				for k := 1; k < c; k++ {
					multiEdges++
					g.RemoveEdge(u, int(v))
				}
			}
			i = j
		}
	}
	return selfLoops, multiEdges
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), edges: g.edges}
	for u, a := range g.adj {
		c.adj[u] = append([]int32(nil), a...)
	}
	return c
}

// randSource is the subset of xrand.RNG the graph package needs. Declared
// locally to keep the dependency direction substrate→graph acyclic and the
// package testable with fakes.
type randSource interface {
	Intn(n int) int
}

// RandomNeighbor returns a uniformly random neighbor of u, or -1 if u has
// none. Parallel edges weight their endpoint proportionally, matching a
// uniform choice over adjacency entries (the behavior random walks expect).
func (g *Graph) RandomNeighbor(u int, rng randSource) int {
	if !g.has(u) || len(g.adj[u]) == 0 {
		return -1
	}
	return int(g.adj[u][rng.Intn(len(g.adj[u]))])
}

// RandomNeighborExcluding returns a uniformly random neighbor of u other
// than excl, or -1 if none exists. Random-walk search uses this to avoid
// immediately bouncing back to the forwarding node (paper §V-A3).
func (g *Graph) RandomNeighborExcluding(u, excl int, rng randSource) int {
	if !g.has(u) {
		return -1
	}
	a := g.adj[u]
	n := 0
	for _, v := range a {
		if int(v) != excl {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	pick := rng.Intn(n)
	for _, v := range a {
		if int(v) != excl {
			if pick == 0 {
				return int(v)
			}
			pick--
		}
	}
	return -1 // unreachable
}
