package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// buildDigest hashes a generated topology bit for bit: the FreezePar(1)
// CSR layout (every node's degree followed by its insertion-order
// neighbor list), the edge count, and the generator's Stats. Any change
// to the RNG draw sequence, the acceptance tests, or the adjacency order
// shows up as a different digest.
func buildDigest(g *graph.Graph, st Stats) string {
	f := g.FreezePar(1)
	h := sha256.New()
	var buf [4]byte
	put := func(x int) {
		binary.LittleEndian.PutUint32(buf[:], uint32(x))
		h.Write(buf[:])
	}
	put(f.N())
	put(f.M())
	for u := 0; u < f.N(); u++ {
		nb := f.Neighbors(u)
		put(len(nb))
		for _, v := range nb {
			put(int(v))
		}
	}
	fmt.Fprintf(h, "%+v", st)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestGeneratorBitPins pins the exact output of every mutable-Graph
// generator at small N and fixed seeds. The digests were recorded on the
// map-backed Graph (before edge membership moved to adjacency scans), so
// they certify that the map-free growth kernels consume the same RNG
// draws and produce the same graphs and Stats counters.
func TestGeneratorBitPins(t *testing.T) {
	t.Parallel()
	sub, _, err := GRNFrozen(GRNConfig{N: 1500, MeanDegree: 10}, Build{RNG: xrand.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	overlay := func(ov *Overlay, st Stats, err error) (*graph.Graph, Stats, error) {
		if err != nil {
			return nil, st, err
		}
		return ov.G, st, nil
	}
	noStats := func(g *graph.Graph, err error) (*graph.Graph, Stats, error) { return g, Stats{}, err }
	cases := []struct {
		name  string
		build func() (*graph.Graph, Stats, error)
		want  string
	}{
		{"pa/m2", func() (*graph.Graph, Stats, error) {
			return PA(PAConfig{N: 2000, M: 2}, xrand.New(1))
		}, "00a5f35cc594e1d5"},
		{"pa/m3-kc10", func() (*graph.Graph, Stats, error) {
			return PA(PAConfig{N: 2000, M: 3, KC: 10}, xrand.New(2))
		}, "45f7634ae6919f58"},
		{"pa/m2-kc4-phased", func() (*graph.Graph, Stats, error) {
			return PABuild(PAConfig{N: 1500, M: 2, KC: 4}, NewBuild(phasesFor(3, 1), 1))
		}, "bf3ee64aa83c4dbf"},
		{"pa/literal-m2-kc10", func() (*graph.Graph, Stats, error) {
			return PA(PAConfig{N: 300, M: 2, KC: 10, LiteralSampling: true}, xrand.New(4))
		}, "6008286477269348"},
		{"hapa/m1-nokc", func() (*graph.Graph, Stats, error) {
			return HAPA(HAPAConfig{N: 800, M: 1}, xrand.New(5))
		}, "1e0f425c6be72093"},
		{"hapa/m1-kc50", func() (*graph.Graph, Stats, error) {
			return HAPA(HAPAConfig{N: 800, M: 1, KC: 50}, xrand.New(6))
		}, "a97257c70c9f3727"},
		{"hapa/m1-kc10", func() (*graph.Graph, Stats, error) {
			return HAPA(HAPAConfig{N: 800, M: 1, KC: 10}, xrand.New(7))
		}, "812b77cdf44cf5c8"},
		{"hapa/m3-nokc", func() (*graph.Graph, Stats, error) {
			return HAPA(HAPAConfig{N: 800, M: 3}, xrand.New(8))
		}, "71fc97e1f03d7e5d"},
		{"hapa/m3-kc50", func() (*graph.Graph, Stats, error) {
			return HAPA(HAPAConfig{N: 800, M: 3, KC: 50}, xrand.New(9))
		}, "5c0452acbb73bb5f"},
		{"hapa/m3-kc10-phased", func() (*graph.Graph, Stats, error) {
			return HAPABuild(HAPAConfig{N: 800, M: 3, KC: 10}, NewBuild(phasesFor(10, 2), 1))
		}, "e511cd0c9d019919"},
		{"hapa/m3-kc3-saturated", func() (*graph.Graph, Stats, error) {
			// kc == m saturates the seed clique, so every join runs the
			// hop budget, all restarts and a failing paFallback before
			// recording its stubs as unfilled.
			return HAPA(HAPAConfig{N: 8, M: 3, KC: 3}, xrand.New(11))
		}, "15b81f830937fd7d"},
		{"nlpa/m2-a0.5", func() (*graph.Graph, Stats, error) {
			return NLPA(NLPAConfig{N: 1500, M: 2, Alpha: 0.5}, xrand.New(12))
		}, "70f97eb51ff0a9cd"},
		{"nlpa/m2-a1.5-kc20", func() (*graph.Graph, Stats, error) {
			return NLPA(NLPAConfig{N: 1500, M: 2, KC: 20, Alpha: 1.5}, xrand.New(13))
		}, "1bb33b989092ff3c"},
		{"nlpa/m2-a3-kc100-fallback", func() (*graph.Graph, Stats, error) {
			// A saturated superlinear hub makes low-degree acceptance
			// ~(k/kc)^2, so some stubs exhaust paAttemptBudget and are
			// placed by paFallback's degree-weighted draw.
			return NLPA(NLPAConfig{N: 400, M: 2, KC: 100, Alpha: 3}, xrand.New(23))
		}, "b603a47baec932b9"},
		{"fitness/m2-kc20", func() (*graph.Graph, Stats, error) {
			g, _, st, err := Fitness(FitnessConfig{N: 1500, M: 2, KC: 20}, xrand.New(14))
			return g, st, err
		}, "4534eb7e84b2ddd5"},
		{"dapa/tau2-m2-kc10", func() (*graph.Graph, Stats, error) {
			return overlay(DAPAFrozen(sub, DAPAConfig{NOverlay: 700, M: 2, KC: 10, TauSub: 2}, xrand.New(15)))
		}, "db9611fdda582a74"},
		{"dapa/tau50-m2-kc10", func() (*graph.Graph, Stats, error) {
			return overlay(DAPAFrozen(sub, DAPAConfig{NOverlay: 700, M: 2, KC: 10, TauSub: 50}, xrand.New(16)))
		}, "1a2efa1b257fee35"},
		{"dapa/tau50-m3-nokc-phased", func() (*graph.Graph, Stats, error) {
			return overlay(DAPABuild(sub, DAPAConfig{NOverlay: 700, M: 3, TauSub: 50}, NewBuild(phasesFor(17, 3), 2)))
		}, "a69af651ed42cbd8"},
		{"rewire/m2-kc30", func() (*graph.Graph, Stats, error) {
			return LocalEvents(LocalEventsConfig{N: 800, M: 2, KC: 30, P: 0.2, Q: 0.3}, xrand.New(18))
		}, "8f479ed5e841cdb3"},
		{"er", func() (*graph.Graph, Stats, error) {
			return noStats(ER(500, 1500, xrand.New(19)))
		}, "0521888e91652a5e"},
		{"ws", func() (*graph.Graph, Stats, error) {
			return noStats(WattsStrogatz(500, 3, 0.2, xrand.New(20)))
		}, "40a0de6d0a09fa50"},
		{"cm/legacy", func() (*graph.Graph, Stats, error) {
			return CM(CMConfig{N: 3000, M: 2, KC: 60, Gamma: 2.2}, xrand.New(21))
		}, "55616a6966e36a5b"},
		{"cm/legacy-nokc", func() (*graph.Graph, Stats, error) {
			return CM(CMConfig{N: 3000, M: 1, Gamma: 2.0}, xrand.New(22))
		}, "601884291a4e0be4"},
	}
	for _, tc := range cases {
		g, st, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buildDigest(g, st); got != tc.want {
			t.Errorf("%s: digest %s, want %s (stats %+v)", tc.name, got, tc.want, st)
		}
	}
}
