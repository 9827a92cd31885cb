package graph

import (
	"errors"
	"slices"
	"testing"

	"scalefree/internal/xrand"
)

// refGraph is the map-backed multigraph Graph used to be: the same
// per-node insertion-order adjacency lists, plus a global
// edge-multiplicity map that answers membership and drives Simplify's key
// order. It is kept here as the executable specification the map-free
// Graph must match, operation for operation.
type refGraph struct {
	adj   [][]int32
	count map[[2]int32]int // multiplicity keyed by (min, max); self-loop (u, u)
	edges int
}

func newRefGraph(n int) *refGraph {
	return &refGraph{adj: make([][]int32, n), count: map[[2]int32]int{}}
}

func refKey(u, v int) [2]int32 {
	if u > v {
		u, v = v, u
	}
	return [2]int32{int32(u), int32(v)}
}

func (r *refGraph) valid(u int) bool { return u >= 0 && u < len(r.adj) }

func (r *refGraph) addEdge(u, v int) bool {
	if !r.valid(u) || !r.valid(v) {
		return false
	}
	r.adj[u] = append(r.adj[u], int32(v))
	if u == v {
		r.adj[u] = append(r.adj[u], int32(v))
	} else {
		r.adj[v] = append(r.adj[v], int32(u))
	}
	r.count[refKey(u, v)]++
	r.edges++
	return true
}

func (r *refGraph) dropOne(u int, w int32) {
	a := r.adj[u]
	i := slices.Index(a, w)
	a[i] = a[len(a)-1]
	r.adj[u] = a[:len(a)-1]
}

func (r *refGraph) removeEdge(u, v int) bool {
	if !r.valid(u) || !r.valid(v) || r.count[refKey(u, v)] == 0 {
		return false
	}
	key := refKey(u, v)
	if r.count[key]--; r.count[key] == 0 {
		delete(r.count, key)
	}
	r.edges--
	r.dropOne(u, int32(v))
	r.dropOne(v, int32(u))
	return true
}

func (r *refGraph) multiplicity(u, v int) int {
	if !r.valid(u) || !r.valid(v) {
		return 0
	}
	return r.count[refKey(u, v)]
}

// simplify visits the multiplicity map's keys in ascending order, deleting
// every self-loop and all but one copy of each parallel edge.
func (r *refGraph) simplify() (selfLoops, multiEdges int) {
	keys := make([][2]int32, 0, len(r.count))
	for key := range r.count {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	for _, key := range keys {
		c := r.count[key]
		u, v := int(key[0]), int(key[1])
		if u == v {
			for ; c > 0; c-- {
				selfLoops++
				r.removeEdge(u, v)
			}
			continue
		}
		for ; c > 1; c-- {
			multiEdges++
			r.removeEdge(u, v)
		}
	}
	return selfLoops, multiEdges
}

func (r *refGraph) clone() *refGraph {
	c := newRefGraph(len(r.adj))
	for u, a := range r.adj {
		c.adj[u] = append([]int32(nil), a...)
	}
	for k, m := range r.count {
		c.count[k] = m
	}
	c.edges = r.edges
	return c
}

// induced replays the map-era InducedSubgraph: cross edges as the scan
// meets them, then each node's self-loops appended at the end.
func (r *refGraph) induced(nodes []int) *refGraph {
	idx := make(map[int32]int32, len(nodes))
	for i, u := range nodes {
		idx[int32(u)] = int32(i)
	}
	sub := newRefGraph(len(nodes))
	for i, u := range nodes {
		if !r.valid(u) {
			continue
		}
		for _, v := range r.adj[u] {
			j, ok := idx[v]
			if !ok {
				continue
			}
			if int32(i) < j {
				sub.adj[i] = append(sub.adj[i], j)
				sub.adj[j] = append(sub.adj[j], int32(i))
				sub.count[refKey(i, int(j))]++
				sub.edges++
			} else if int32(i) == j {
				sub.count[refKey(i, i)]++
			}
		}
	}
	for i := range nodes {
		key := refKey(i, i)
		c := sub.count[key] / 2
		if c == 0 {
			delete(sub.count, key)
			continue
		}
		sub.count[key] = c
		for k := 0; k < 2*c; k++ {
			sub.adj[i] = append(sub.adj[i], int32(i))
		}
		sub.edges += c
	}
	return sub
}

// matchRef compares every observable of g against the reference,
// including out-of-range IDs on both sides of the node range.
func matchRef(t *testing.T, step string, g *Graph, r *refGraph) {
	t.Helper()
	n := len(r.adj)
	if g.N() != n || g.M() != r.edges {
		t.Fatalf("%s: N=%d M=%d, want N=%d M=%d", step, g.N(), g.M(), n, r.edges)
	}
	for u := -2; u < n+2; u++ {
		var want []int32
		if r.valid(u) {
			want = r.adj[u]
		}
		if got := g.Neighbors(u); !slices.Equal(got, want) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", step, u, got, want)
		}
		if g.Degree(u) != len(want) {
			t.Fatalf("%s: Degree(%d) = %d, want %d", step, u, g.Degree(u), len(want))
		}
		for v := -2; v < n+2; v++ {
			m := r.multiplicity(u, v)
			if got := g.EdgeMultiplicity(u, v); got != m {
				t.Fatalf("%s: EdgeMultiplicity(%d,%d) = %d, want %d", step, u, v, got, m)
			}
			if got := g.HasEdge(u, v); got != (m > 0) {
				t.Fatalf("%s: HasEdge(%d,%d) = %v, want %v", step, u, v, got, m > 0)
			}
		}
	}
}

// TestGraphMatchesMapReference drives random operation sequences — edge
// inserts dense in parallel edges and self-loops, removals (present,
// absent, out of range), Simplify, Clone and InducedSubgraph — through
// Graph and the map-backed reference side by side, and compares every
// membership answer, multiplicity, degree and adjacency order after each
// step. It pins everything the edge-multiplicity map used to guarantee.
func TestGraphMatchesMapReference(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 40; seed++ {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(7)
		g, r := New(n), newRefGraph(n)
		node := func() int { return rng.Intn(len(r.adj)+2) - 1 } // one out of range each side
		for step := 0; step < 250; step++ {
			var label string
			switch op := rng.Intn(100); {
			case op < 50:
				u, v := node(), node()
				if rng.Bool(0.2) {
					v = u
				}
				label = "AddEdge"
				err := g.AddEdge(u, v)
				if ok := r.addEdge(u, v); ok != (err == nil) || (err != nil && !errors.Is(err, ErrNodeRange)) {
					t.Fatalf("seed %d step %d: AddEdge(%d,%d) err=%v, reference ok=%v", seed, step, u, v, err, ok)
				}
			case op < 80:
				u, v := node(), node()
				if r.valid(u) && len(r.adj[u]) > 0 && rng.Bool(0.7) {
					v = int(r.adj[u][rng.Intn(len(r.adj[u]))]) // hit an existing edge
				}
				label = "RemoveEdge"
				if got, want := g.RemoveEdge(u, v), r.removeEdge(u, v); got != want {
					t.Fatalf("seed %d step %d: RemoveEdge(%d,%d) = %v, want %v", seed, step, u, v, got, want)
				}
			case op < 85:
				label = "Simplify"
				sl, me := g.Simplify()
				wsl, wme := r.simplify()
				if sl != wsl || me != wme {
					t.Fatalf("seed %d step %d: Simplify = (%d,%d), want (%d,%d)", seed, step, sl, me, wsl, wme)
				}
			case op < 92:
				// Continue on the clone; the original must be unaffected
				// by the clone's later mutations.
				label = "Clone"
				old, oldRef := g, r.clone()
				g, r = g.Clone(), r.clone()
				g.AddEdge(0, 0)
				r.addEdge(0, 0)
				matchRef(t, "Clone original", old, oldRef)
			case op < 97:
				label = "InducedSubgraph"
				nodes := make([]int, 1+rng.Intn(len(r.adj)+1))
				for i := range nodes {
					nodes[i] = node()
				}
				sub, orig := refInducedSubgraph(g, nodes)
				if !slices.Equal(orig, nodes) {
					t.Fatalf("seed %d step %d: InducedSubgraph orig = %v, want %v", seed, step, orig, nodes)
				}
				g, r = sub, r.induced(nodes)
			default:
				label = "AddNode"
				if got := g.AddNode(); got != len(r.adj) {
					t.Fatalf("seed %d step %d: AddNode = %d, want %d", seed, step, got, len(r.adj))
				}
				r.adj = append(r.adj, nil)
			}
			matchRef(t, label, g, r)
		}
	}
}
