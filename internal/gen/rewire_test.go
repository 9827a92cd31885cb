package gen

import (
	"testing"

	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

func TestLocalEventsValidation(t *testing.T) {
	t.Parallel()
	cases := []LocalEventsConfig{
		{N: 100, M: 0, P: 0.1, Q: 0.1},
		{N: 100, M: 2, P: 0.6, Q: 0.5}, // p+q >= 1
		{N: 100, M: 2, P: -0.1, Q: 0},
		{N: 2, M: 2, P: 0, Q: 0},
	}
	for _, cfg := range cases {
		if _, _, err := LocalEvents(cfg, xrand.New(1)); err == nil {
			t.Errorf("LocalEvents(%+v) should fail validation", cfg)
		}
	}
}

func TestLocalEventsPureGrowthIsPA(t *testing.T) {
	t.Parallel()
	// p = q = 0 reduces to plain PA: same node count, ~same edge count,
	// comparable hub scale.
	cfg := LocalEventsConfig{N: 3000, M: 2, P: 0, Q: 0}
	g, _, err := LocalEvents(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3000 {
		t.Fatalf("N = %d", g.N())
	}
	pa, _, err := PA(PAConfig{N: 3000, M: 2}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(g.M()) / float64(pa.M())
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("edge counts diverge: local-events %d vs PA %d", g.M(), pa.M())
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("pure-growth local events must be connected")
	}
}

func TestLocalEventsEdgeAdditionDensifies(t *testing.T) {
	t.Parallel()
	// Higher P (edge events) at fixed N yields a denser network.
	sparse, _, err := LocalEvents(LocalEventsConfig{N: 2000, M: 2, P: 0, Q: 0}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	dense, _, err := LocalEvents(LocalEventsConfig{N: 2000, M: 2, P: 0.4, Q: 0}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if dense.M() <= sparse.M() {
		t.Fatalf("edge events should densify: p=0.4 gives %d edges vs %d", dense.M(), sparse.M())
	}
	meanDense := float64(dense.TotalDegree()) / float64(dense.N())
	meanSparse := float64(sparse.TotalDegree()) / float64(sparse.N())
	if meanDense < meanSparse*1.2 {
		t.Fatalf("mean degree %.2f vs %.2f", meanDense, meanSparse)
	}
}

func TestLocalEventsRewiringPreservesEdgeCount(t *testing.T) {
	t.Parallel()
	// Rewiring events move links without changing totals: with q > 0 and
	// p = 0 the edge count still tracks ~m per node event.
	g, _, err := LocalEvents(LocalEventsConfig{N: 2000, M: 2, P: 0, Q: 0.3}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(g.TotalDegree()) / float64(g.N())
	if mean < 3 || mean > 5 {
		t.Fatalf("mean degree %.2f, want ~4 (2m)", mean)
	}
	if g.TotalDegree() != 2*g.M() {
		t.Fatal("degree bookkeeping broken after rewiring")
	}
}

func TestLocalEventsRespectsCutoff(t *testing.T) {
	t.Parallel()
	g, _, err := LocalEvents(LocalEventsConfig{N: 2000, M: 2, KC: 15, P: 0.2, Q: 0.2}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 15 {
		t.Fatalf("cutoff violated: %d", g.MaxDegree())
	}
}

func TestLocalEventsHeavyTail(t *testing.T) {
	t.Parallel()
	// The model stays scale-free for moderate p, q: heavy tail with a
	// fitted exponent in a plausible band.
	var dists []stats.DegreeDist
	for seed := uint64(0); seed < 3; seed++ {
		g, _, err := LocalEvents(LocalEventsConfig{N: 8000, M: 1, P: 0.2, Q: 0.1}, xrand.New(10+seed))
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, stats.NewDegreeDist(g.DegreeHistogram()))
	}
	fit, err := stats.FitPowerLawBinned(stats.MergeDegreeDists(dists), 1.7, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Gamma < 1.5 || fit.Gamma > 3.5 {
		t.Fatalf("local-events exponent %.2f outside plausible band", fit.Gamma)
	}
}

func TestLocalEventsDeterminism(t *testing.T) {
	t.Parallel()
	cfg := LocalEventsConfig{N: 800, M: 2, KC: 30, P: 0.2, Q: 0.2}
	a, _, err := LocalEvents(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := LocalEvents(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape differs: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("degree(%d) differs", u)
		}
	}
}
