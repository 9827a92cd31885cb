package gen

import (
	"testing"

	"scalefree/internal/xrand"
)

func TestNLPAValidation(t *testing.T) {
	t.Parallel()
	cases := []NLPAConfig{
		{N: 100, M: 0, Alpha: 1},
		{N: 100, M: 2, Alpha: -0.5},
		{N: 2, M: 2, Alpha: 1},
	}
	for _, cfg := range cases {
		if _, _, err := NLPA(cfg, xrand.New(1)); err == nil {
			t.Errorf("NLPA(%+v) should fail validation", cfg)
		}
	}
}

func TestNLPABasicStructure(t *testing.T) {
	t.Parallel()
	const n, m = 2000, 2
	g, st, err := NLPA(NLPAConfig{N: n, M: m, Alpha: 0.5}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	wantM := m*(m+1)/2 + (n-m-1)*m - st.UnfilledStubs
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("NLPA graph must be connected")
	}
}

func TestNLPAAlphaOneMatchesLinearPA(t *testing.T) {
	t.Parallel()
	// Alpha = 1 must behave like linear PA statistically: compare hub
	// scale over a few seeds.
	var nlpaMax, paMax int
	for seed := uint64(0); seed < 4; seed++ {
		gn, _, err := NLPA(NLPAConfig{N: 3000, M: 1, Alpha: 1}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		gp, _, err := PA(PAConfig{N: 3000, M: 1}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		nlpaMax += gn.MaxDegree()
		paMax += gp.MaxDegree()
	}
	ratio := float64(nlpaMax) / float64(paMax)
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("alpha=1 hub scale ratio %.2f vs linear PA", ratio)
	}
}

func TestNLPASublinearSuppressesHubs(t *testing.T) {
	t.Parallel()
	// Sublinear kernels (alpha < 1) yield stretched-exponential degree
	// distributions: the largest hub is far smaller than under linear PA.
	var sub, lin int
	for seed := uint64(0); seed < 4; seed++ {
		gs, _, err := NLPA(NLPAConfig{N: 4000, M: 1, Alpha: 0.3}, xrand.New(10+seed))
		if err != nil {
			t.Fatal(err)
		}
		gl, _, err := PA(PAConfig{N: 4000, M: 1}, xrand.New(10+seed))
		if err != nil {
			t.Fatal(err)
		}
		sub += gs.MaxDegree()
		lin += gl.MaxDegree()
	}
	if sub*2 >= lin {
		t.Fatalf("sublinear hubs (%d) should be well under half of linear (%d)", sub, lin)
	}
}

func TestNLPASuperlinearCondenses(t *testing.T) {
	t.Parallel()
	// Superlinear kernels condense: one node grabs a finite fraction of
	// all links.
	g, _, err := NLPA(NLPAConfig{N: 3000, M: 1, Alpha: 1.8}, xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() < g.N()/10 {
		t.Fatalf("superlinear max degree %d; expected condensation toward O(N)", g.MaxDegree())
	}
}

func TestNLPARespectsCutoff(t *testing.T) {
	t.Parallel()
	for _, alpha := range []float64{0.5, 1, 1.5} {
		g, _, err := NLPA(NLPAConfig{N: 2000, M: 2, KC: 20, Alpha: alpha}, xrand.New(31))
		if err != nil {
			t.Fatal(err)
		}
		if g.MaxDegree() > 20 {
			t.Fatalf("alpha=%.1f: cutoff violated (%d)", alpha, g.MaxDegree())
		}
	}
}

func TestNLPADeterminism(t *testing.T) {
	t.Parallel()
	cfg := NLPAConfig{N: 800, M: 2, KC: 30, Alpha: 0.7}
	a, _, err := NLPA(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NLPA(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < a.N(); u++ {
		if a.Degree(u) != b.Degree(u) {
			t.Fatalf("degree(%d) differs", u)
		}
	}
}

func TestFitnessValidation(t *testing.T) {
	t.Parallel()
	if _, _, _, err := Fitness(FitnessConfig{N: 100, M: 0}, xrand.New(1)); err == nil {
		t.Error("m=0 should fail")
	}
	bad := FitnessConfig{N: 100, M: 1, Fitness: func(*xrand.RNG) float64 { return 2 }}
	if _, _, _, err := Fitness(bad, xrand.New(1)); err == nil {
		t.Error("fitness > 1 should fail")
	}
}

func TestFitnessBasicStructure(t *testing.T) {
	t.Parallel()
	const n, m = 2000, 2
	g, eta, st, err := Fitness(FitnessConfig{N: n, M: m}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(eta) != n {
		t.Fatalf("fitness values %d", len(eta))
	}
	wantM := m*(m+1)/2 + (n-m-1)*m - st.UnfilledStubs
	if g.M() != wantM {
		t.Fatalf("M = %d, want %d", g.M(), wantM)
	}
	if !g.Freeze().IsConnected() {
		t.Fatal("fitness graph must be connected")
	}
}

func TestFitnessFavorsFitNodes(t *testing.T) {
	t.Parallel()
	// Among early nodes (same age), the fitter ones must end with higher
	// degree on average: correlate fitness with degree over the top
	// decile vs bottom decile of fitness.
	g, eta, _, err := Fitness(FitnessConfig{N: 6000, M: 2}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	var hiDeg, loDeg, hiN, loN float64
	for u := 0; u < g.N(); u++ {
		switch {
		case eta[u] > 0.9:
			hiDeg += float64(g.Degree(u))
			hiN++
		case eta[u] < 0.1:
			loDeg += float64(g.Degree(u))
			loN++
		}
	}
	if hiN == 0 || loN == 0 {
		t.Fatal("fitness deciles empty")
	}
	if hiDeg/hiN <= loDeg/loN {
		t.Fatalf("fit nodes (mean deg %.2f) should out-attract unfit (%.2f)", hiDeg/hiN, loDeg/loN)
	}
}

func TestFitnessYoungFitOvertakesOldUnfit(t *testing.T) {
	t.Parallel()
	// The fitness model's signature behavior [54]: give one late joiner
	// maximal fitness and everyone else minimal; the late joiner should
	// out-degree typical early nodes.
	const n, star = 3000, 1500
	cfg := FitnessConfig{
		N: n, M: 1,
		Fitness: func(rng *xrand.RNG) float64 { return 0.05 },
	}
	// Wrap the fitness function to special-case the star node by draw
	// order (fitness is drawn per node ID in order).
	calls := 0
	cfg.Fitness = func(rng *xrand.RNG) float64 {
		calls++
		if calls-1 == star {
			return 1.0
		}
		return 0.05
	}
	g, eta, _, err := Fitness(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if eta[star] != 1.0 {
		t.Fatalf("star fitness %v", eta[star])
	}
	// Mean degree of early unfit nodes (IDs 2..100).
	var sum float64
	for u := 2; u <= 100; u++ {
		sum += float64(g.Degree(u))
	}
	early := sum / 99
	if float64(g.Degree(star)) < 2*early {
		t.Fatalf("fit latecomer degree %d should dwarf early mean %.1f", g.Degree(star), early)
	}
}

func TestFitnessRespectsCutoff(t *testing.T) {
	t.Parallel()
	g, _, _, err := Fitness(FitnessConfig{N: 2000, M: 2, KC: 15}, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() > 15 {
		t.Fatalf("cutoff violated: %d", g.MaxDegree())
	}
}
