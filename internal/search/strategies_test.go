package search

import (
	"testing"
	"testing/quick"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// paGraph builds a small PA topology for strategy comparisons.
func paGraph(t testing.TB, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, _, err := gen.PA(gen.PAConfig{N: n, M: m}, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHighDegreeWalkValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	if _, err := HighDegreeWalk(g.Freeze(), -1, 2, nil); err == nil {
		t.Error("negative source should fail")
	}
	if _, err := HighDegreeWalk(g.Freeze(), 0, -1, nil); err == nil {
		t.Error("negative steps should fail")
	}
}

func TestHighDegreeWalkPrefersHub(t *testing.T) {
	t.Parallel()
	// Leaf 1's only move is the hub; from the hub the walk must pick an
	// unvisited leaf, never revisit immediately.
	g := star(t, 8)
	res, err := HighDegreeWalk(g.Freeze(), 1, 4, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Steps: 1->0 (hub), 0->leaf, leaf->0 (all neighbors visited except
	// backtrack), 0->new leaf. Distinct nodes: 1,0,leaf,leaf = 4.
	if got := res.Hits[4]; got != 4 {
		t.Fatalf("Hits[4] = %d, want 4 (walk %v)", got, res.Hits)
	}
	if res.Messages[4] != 4 {
		t.Fatalf("Messages[4] = %d, want 4", res.Messages[4])
	}
}

func TestHighDegreeWalkTwoHubs(t *testing.T) {
	t.Parallel()
	// Node 0 has degree 3, node 1 degree 2, rest leaves. From leaf 2 the
	// greedy walk must go to 0 first (its only neighbor), then to the
	// highest-degree unvisited neighbor, which is 1.
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := HighDegreeWalk(g.Freeze(), 2, 2, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[2] != 3 {
		t.Fatalf("Hits[2] = %d, want 3 (2,0,1)", res.Hits[2])
	}
}

func TestHighDegreeWalkIsolatedSource(t *testing.T) {
	t.Parallel()
	g := graph.New(3)
	res, err := HighDegreeWalk(g.Freeze(), 0, 5, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for t2, h := range res.Hits {
		if h != 1 {
			t.Fatalf("Hits[%d] = %d, want 1 for isolated source", t2, h)
		}
	}
}

func TestHighDegreeWalkBeatsBlindWalkOnPA(t *testing.T) {
	t.Parallel()
	// Adamic's core claim: degree-seeking walks cover power-law networks
	// faster than blind walks. Compare average coverage over sources.
	g := paGraph(t, 2000, 2, 42)
	steps := 200
	rng := xrand.New(99)
	var hd, blind int
	for trial := 0; trial < 20; trial++ {
		src := rng.Intn(g.N())
		rh, err := HighDegreeWalk(g.Freeze(), src, steps, rng)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := rwOnce(g, src, steps, rng)
		if err != nil {
			t.Fatal(err)
		}
		hd += rh.Hits[steps]
		blind += rb.Hits[steps]
	}
	if hd <= blind {
		t.Fatalf("degree-seeking walk covered %d <= blind walk %d on PA", hd, blind)
	}
}

func TestHighDegreeWalkHitsMonotone(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 500, 2, 3)
	res, err := HighDegreeWalk(g.Freeze(), 0, 100, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i] < res.Hits[i-1] {
			t.Fatalf("Hits not monotone at %d: %d < %d", i, res.Hits[i], res.Hits[i-1])
		}
	}
}

func TestProbabilisticFloodValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	if _, err := ProbabilisticFlood(g.Freeze(), 0, 2, -0.1, nil); err == nil {
		t.Error("p < 0 should fail")
	}
	if _, err := ProbabilisticFlood(g.Freeze(), 0, 2, 1.1, nil); err == nil {
		t.Error("p > 1 should fail")
	}
	if _, err := ProbabilisticFlood(g.Freeze(), 9, 2, 0.5, nil); err == nil {
		t.Error("bad source should fail")
	}
}

func TestProbabilisticFloodP1EqualsFlood(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 800, 2, 11)
	for _, src := range []int{0, 5, 400} {
		want, err := floodOnce(g, src, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProbabilisticFlood(g.Freeze(), src, 6, 1, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for tt := range want.Hits {
			if got.Hits[tt] != want.Hits[tt] {
				t.Fatalf("src %d: p=1 Hits[%d] = %d, flood %d", src, tt, got.Hits[tt], want.Hits[tt])
			}
			if got.Messages[tt] != want.Messages[tt] {
				t.Fatalf("src %d: p=1 Messages[%d] = %d, flood %d", src, tt, got.Messages[tt], want.Messages[tt])
			}
		}
	}
}

func TestProbabilisticFloodP0OnlySourceNeighborhood(t *testing.T) {
	t.Parallel()
	// With p=0 only the source forwards: coverage is exactly the source's
	// closed neighborhood regardless of TTL.
	g := paGraph(t, 500, 2, 13)
	src := 0
	res, err := ProbabilisticFlood(g.Freeze(), src, 8, 0, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	want := g.Degree(src) + 1
	if res.Hits[8] != want {
		t.Fatalf("p=0 Hits[8] = %d, want %d", res.Hits[8], want)
	}
	if res.Messages[8] != g.Degree(src) {
		t.Fatalf("p=0 Messages[8] = %d, want %d", res.Messages[8], g.Degree(src))
	}
}

func TestProbabilisticFloodCoverageBetween(t *testing.T) {
	t.Parallel()
	// 0 < p < 1 lands between the p=0 and p=1 extremes, and both hits and
	// messages are bounded by full flooding, averaged over trials.
	g := paGraph(t, 2000, 3, 17)
	src := 1
	full, err := floodOnce(g, src, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	var hits, msgs int
	const trials = 10
	for i := 0; i < trials; i++ {
		res, err := ProbabilisticFlood(g.Freeze(), src, 5, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hits[5] > full.Hits[5] {
			t.Fatalf("probabilistic hits %d exceed flood %d", res.Hits[5], full.Hits[5])
		}
		if res.Messages[5] > full.Messages[5] {
			t.Fatalf("probabilistic messages %d exceed flood %d", res.Messages[5], full.Messages[5])
		}
		hits += res.Hits[5]
		msgs += res.Messages[5]
	}
	minHits := (g.Degree(src) + 1) * trials
	if hits <= minHits {
		t.Fatalf("p=0.5 average hits %d no better than p=0 bound %d", hits, minHits)
	}
	if msgs >= full.Messages[5]*trials {
		t.Fatalf("p=0.5 should save messages vs flooding: %d vs %d", msgs, full.Messages[5]*trials)
	}
}

func TestProbabilisticFloodDeterministicWithSeed(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 600, 2, 23)
	a, err := ProbabilisticFlood(g.Freeze(), 2, 6, 0.4, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProbabilisticFlood(g.Freeze(), 2, 6, 0.4, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Hits {
		if a.Hits[i] != b.Hits[i] || a.Messages[i] != b.Messages[i] {
			t.Fatalf("same seed diverged at t=%d", i)
		}
	}
}

func TestHybridSearchValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 5)
	if _, err := HybridSearch(g.Freeze(), -1, 1, 1, 5, nil); err == nil {
		t.Error("bad source should fail")
	}
	if _, err := HybridSearch(g.Freeze(), 0, 1, 0, 5, nil); err == nil {
		t.Error("zero walkers should fail")
	}
	if _, err := HybridSearch(g.Freeze(), 0, 1, 1, -1, nil); err == nil {
		t.Error("negative steps should fail")
	}
}

func TestHybridSearchFloodPhaseMatchesFlood(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 1000, 2, 31)
	src, floodTTL := 4, 3
	flood, err := floodOnce(g, src, floodTTL)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HybridSearch(g.Freeze(), src, floodTTL, 4, 20, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != floodTTL+20+1 {
		t.Fatalf("combined axis length %d, want %d", len(res.Hits), floodTTL+20+1)
	}
	for tt := 0; tt <= floodTTL; tt++ {
		if res.Hits[tt] != flood.Hits[tt] {
			t.Fatalf("flood phase Hits[%d] = %d, want %d", tt, res.Hits[tt], flood.Hits[tt])
		}
	}
}

func TestHybridSearchWalkPhaseExtendsCoverage(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 3000, 2, 37)
	src, floodTTL, walkers, steps := 0, 2, 8, 150
	res, err := HybridSearch(g.Freeze(), src, floodTTL, walkers, steps, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	base := res.Hits[floodTTL]
	if res.Hits[floodTTL+steps] <= base {
		t.Fatalf("walk phase added no coverage: %d -> %d", base, res.Hits[floodTTL+steps])
	}
	// Messages in the walk phase grow by walkers per step.
	m1 := res.Messages[floodTTL+1] - res.Messages[floodTTL]
	if m1 != walkers {
		t.Fatalf("first walk step added %d messages, want %d", m1, walkers)
	}
	for i := 1; i < len(res.Hits); i++ {
		if res.Hits[i] < res.Hits[i-1] {
			t.Fatalf("Hits not monotone at %d", i)
		}
		if res.Messages[i] < res.Messages[i-1] {
			t.Fatalf("Messages not monotone at %d", i)
		}
	}
}

func TestHybridSearchZeroStepsIsFlood(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 500, 2, 41)
	flood, err := floodOnce(g, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := HybridSearch(g.Freeze(), 3, 4, 2, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(flood.Hits) {
		t.Fatalf("axis %d, want %d", len(res.Hits), len(flood.Hits))
	}
	for tt := range flood.Hits {
		if res.Hits[tt] != flood.Hits[tt] {
			t.Fatalf("Hits[%d] = %d, want %d", tt, res.Hits[tt], flood.Hits[tt])
		}
	}
}

func TestHybridSearchSmallComponentFrontierFallback(t *testing.T) {
	t.Parallel()
	// A flood that sweeps its whole component leaves an empty frontier;
	// the walkers must still start (from within the ball) without panic.
	g := pathN(t, 4) // diameter 3 < floodTTL
	res, err := HybridSearch(g.Freeze(), 0, 5, 2, 10, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hits[5] != 4 {
		t.Fatalf("flood should cover path: %d", res.Hits[5])
	}
	if res.Hits[15] != 4 {
		t.Fatalf("walkers cannot add nodes beyond the component: %d", res.Hits[15])
	}
}

// TestStrategiesHitsWithinN property-checks that every strategy's coverage
// is bounded by the graph order, monotone, and starts at 1, across random
// seeds and parameters.
func TestStrategiesHitsWithinN(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 400, 2, 51)
	fz := g.Freeze()
	f := func(seed uint64, srcRaw, pRaw uint8) bool {
		src := int(srcRaw) % g.N()
		p := float64(pRaw%101) / 100
		rng := xrand.New(seed)
		results := make([]Result, 0, 3)
		r1, err := HighDegreeWalk(fz, src, 50, rng)
		if err != nil {
			return false
		}
		r2, err := ProbabilisticFlood(fz, src, 5, p, rng)
		if err != nil {
			return false
		}
		r3, err := HybridSearch(fz, src, 2, 3, 30, rng)
		if err != nil {
			return false
		}
		results = append(results, r1, r2, r3)
		for _, r := range results {
			if r.Hits[0] != 1 {
				return false
			}
			for i := 1; i < len(r.Hits); i++ {
				if r.Hits[i] < r.Hits[i-1] || r.Hits[i] > g.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHighDegreeWalkPA10k(b *testing.B) {
	f := paGraph(b, 10000, 2, 1).Freeze()
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HighDegreeWalk(f, i%f.N(), 500, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbabilisticFloodPA10k(b *testing.B) {
	f := paGraph(b, 10000, 2, 1).Freeze()
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProbabilisticFlood(f, i%f.N(), 6, 0.5, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridSearchPA10k(b *testing.B) {
	f := paGraph(b, 10000, 2, 1).Freeze()
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HybridSearch(f, i%f.N(), 2, 8, 200, rng); err != nil {
			b.Fatal(err)
		}
	}
}
