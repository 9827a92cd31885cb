package search

import (
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/stats"
	"scalefree/internal/xrand"
)

func TestFloodLoadStar(t *testing.T) {
	t.Parallel()
	g := star(t, 6)
	load := NewLoad(g.N())
	if err := FloodLoad(g.Freeze(), 1, 3, load); err != nil {
		t.Fatal(err)
	}
	// Leaf 1 sends 1 to the hub; the hub forwards to 4 other leaves;
	// leaves forward nothing (degree 1, sender excluded).
	if load.Forwards[1] != 1 {
		t.Fatalf("source forwards %d, want 1", load.Forwards[1])
	}
	if load.Forwards[0] != 4 {
		t.Fatalf("hub forwards %d, want 4", load.Forwards[0])
	}
	if load.Receipts[0] != 1 {
		t.Fatalf("hub receipts %d, want 1", load.Receipts[0])
	}
	if load.Total() != 5 {
		t.Fatalf("total %d, want 5", load.Total())
	}
}

func TestFloodLoadMatchesMessageCount(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 1500, 2, 61)
	for _, src := range []int{0, 7, 900} {
		res, err := floodOnce(g, src, 6)
		if err != nil {
			t.Fatal(err)
		}
		load := NewLoad(g.N())
		if err := FloodLoad(g.Freeze(), src, 6, load); err != nil {
			t.Fatal(err)
		}
		if got, want := load.Total(), int64(res.MessagesAt(6)); got != want {
			t.Fatalf("src %d: load total %d != flood messages %d", src, got, want)
		}
	}
}

func TestNormalizedFloodLoadTotalMatches(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 1500, 2, 67)
	src := 3
	res, err := nfOnce(g, src, 6, 2, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	load := NewLoad(g.N())
	// Same seed -> same random fan-out choices -> same total.
	if err := NormalizedFloodLoad(g.Freeze(), src, 6, 2, xrand.New(9), load); err != nil {
		t.Fatal(err)
	}
	if got, want := load.Total(), int64(res.MessagesAt(6)); got != want {
		t.Fatalf("load total %d != NF messages %d", got, want)
	}
}

func TestRandomWalkLoadChargesSteps(t *testing.T) {
	t.Parallel()
	g := paGraph(t, 500, 2, 71)
	load := NewLoad(g.N())
	if err := RandomWalkLoad(g.Freeze(), 0, 250, xrand.New(5), load); err != nil {
		t.Fatal(err)
	}
	if load.Total() != 250 {
		t.Fatalf("walk total %d, want 250", load.Total())
	}
}

func TestLoadValidation(t *testing.T) {
	t.Parallel()
	g := star(t, 4)
	wrong := NewLoad(7)
	if err := FloodLoad(g.Freeze(), 0, 2, wrong); err == nil {
		t.Error("size mismatch should fail")
	}
	if err := NormalizedFloodLoad(g.Freeze(), 0, 2, 0, nil, NewLoad(4)); err == nil {
		t.Error("kMin 0 should fail")
	}
	if err := RandomWalkLoad(g.Freeze(), -1, 5, nil, NewLoad(4)); err == nil {
		t.Error("bad source should fail")
	}
	// Isolated source walks nowhere without error.
	g2 := star(t, 1)
	if err := RandomWalkLoad(g2.Freeze(), 0, 5, nil, NewLoad(1)); err != nil {
		t.Fatal(err)
	}
}

func TestLoadWorkShape(t *testing.T) {
	t.Parallel()
	load := NewLoad(3)
	load.Forwards[0] = 5
	load.Receipts[0] = 2
	load.Receipts[2] = 4
	w := load.Work()
	if len(w) != 3 || w[0] != 7 || w[1] != 0 || w[2] != 4 {
		t.Fatalf("work = %v", w)
	}
}

// TestCutoffFlattensSearchLoad is the dynamic version of the paper's
// fairness motivation: under NF traffic from many sources, the Gini of
// per-node handling work must fall when a hard cutoff removes the hubs.
func TestCutoffFlattensSearchLoad(t *testing.T) {
	t.Parallel()
	loadGini := func(kc int) float64 {
		t.Helper()
		g, _, err := gen.PA(gen.PAConfig{N: 3000, M: 2, KC: kc}, xrand.New(77))
		if err != nil {
			t.Fatal(err)
		}
		f := g.Freeze()
		rng := xrand.New(79)
		load := NewLoad(f.N())
		for q := 0; q < 200; q++ {
			if err := NormalizedFloodLoad(f, rng.Intn(f.N()), 6, 2, rng, load); err != nil {
				t.Fatal(err)
			}
		}
		return stats.Gini(load.Work())
	}
	free := loadGini(gen.NoCutoff)
	capped := loadGini(10)
	if capped >= free {
		t.Fatalf("kc=10 should flatten NF search load: Gini %v >= %v", capped, free)
	}
}

func BenchmarkFloodLoadPA10k(b *testing.B) {
	f := paGraph(b, 10000, 2, 1).Freeze()
	load := NewLoad(f.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := FloodLoad(f, i%f.N(), 6, load); err != nil {
			b.Fatal(err)
		}
	}
}
