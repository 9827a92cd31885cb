package graph

// Test-only reference: the traversal layer that once ran on the mutable
// Graph's slice-of-slices adjacency. The production code now traverses
// only the CSR Frozen form (frozen_traverse.go); these originals stay
// here so the equivalence tests keep pinning the Frozen results — queue
// orders, component labellings, RNG draws, induced adjacency order —
// against an independent implementation.

import "sort"

func refBFSInto(g *Graph, src int, dist []int32, queue []int32) []int32 {
	queue = append(queue[:0], int32(src))
	dist[src] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// refBFS returns hop distances from src (-1 unreachable, nil for an
// invalid src).
func refBFS(g *Graph, src int) []int32 {
	if !g.has(src) {
		return nil
	}
	dist := make([]int32, len(g.adj))
	for i := range dist {
		dist[i] = -1
	}
	refBFSInto(g, src, dist, nil)
	return dist
}

// refConnectedComponents returns the components largest first (stable
// among equal sizes), members ascending.
func refConnectedComponents(g *Graph) [][]int {
	n := len(g.adj)
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	var queue []int32
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		members := []int{}
		queue = append(queue[:0], int32(s))
		comp[s] = id
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			members = append(members, int(u))
			for _, v := range g.adj[u] {
				if comp[v] < 0 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(members)
		comps = append(comps, members)
	}
	sort.SliceStable(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

func refGiantComponent(g *Graph) []int {
	comps := refConnectedComponents(g)
	if len(comps) == 0 {
		return nil
	}
	return comps[0]
}

// refSamplePathStats aggregates BFS distances from `sources` sources
// (drawn with rng.Intn(n) unless sources >= n, which is exact).
func refSamplePathStats(g *Graph, sources int, rng randSource) PathStats {
	n := len(g.adj)
	var st PathStats
	if n == 0 || sources <= 0 {
		return st
	}
	exact := sources >= n
	dist := make([]int32, n)
	var queue []int32
	var sumDist float64
	for s := 0; s < sources && s < n; s++ {
		src := s
		if !exact {
			src = rng.Intn(n)
		}
		for i := range dist {
			dist[i] = -1
		}
		queue = refBFSInto(g, src, dist, queue)
		for v, d := range dist {
			if v == src {
				continue
			}
			if d < 0 {
				st.UnreachablePairs++
				continue
			}
			sumDist += float64(d)
			st.Pairs++
			st.MaxDistance = max(st.MaxDistance, int(d))
		}
	}
	if st.Pairs > 0 {
		st.MeanDistance = sumDist / float64(st.Pairs)
	}
	return st
}

// refInducedSubgraph returns the subgraph on nodes, renumbered in the
// given order, built by inserting each surviving edge once (from its
// lower new ID) and appending self-loops, as whole pairs, after every
// cross edge.
func refInducedSubgraph(g *Graph, nodes []int) (*Graph, []int) {
	idx := make(map[int32]int32, len(nodes))
	orig := make([]int, len(nodes))
	for i, u := range nodes {
		idx[int32(u)] = int32(i)
		orig[i] = u
	}
	sub := New(len(nodes))
	loops := make([]int32, len(nodes))
	for i, u := range nodes {
		if !g.has(u) {
			continue
		}
		for _, v := range g.adj[u] {
			j, ok := idx[v]
			if !ok {
				continue
			}
			if int32(i) < j {
				sub.adj[i] = append(sub.adj[i], j)
				sub.adj[j] = append(sub.adj[j], int32(i))
				sub.edges++
			} else if int32(i) == j {
				loops[i]++
			}
		}
	}
	for i, c := range loops {
		c /= 2
		for k := int32(0); k < 2*c; k++ {
			sub.adj[i] = append(sub.adj[i], int32(i))
		}
		sub.edges += int(c)
	}
	return sub, orig
}
