package metrics

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"scalefree/internal/gen"
	"scalefree/internal/graph"
	"scalefree/internal/xrand"
)

// digestWriter hashes ints and float64 bit patterns, so a pinned curve
// catches any change in a single giant-component count or RNG draw.
type digestWriter struct{ buf []byte }

func (d *digestWriter) int(x int) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x)) }
func (d *digestWriter) float(x float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
}
func (d *digestWriter) sum() string {
	s := sha256.Sum256(d.buf)
	return hex.EncodeToString(s[:])[:16]
}

func robustnessDigest(pts []RobustnessPoint, steps []BetweennessStep) string {
	var d digestWriter
	d.int(len(pts))
	for _, p := range pts {
		d.float(p.RemovedFrac)
		d.float(p.GiantFrac)
	}
	d.int(len(steps))
	for _, s := range steps {
		d.float(s.RemovedFrac)
		d.float(s.MeanBC)
		d.float(s.MeanSE)
	}
	return d.sum()
}

func percolationDigest(pts []PercolationPoint) string {
	var d digestWriter
	d.int(len(pts))
	for _, p := range pts {
		d.float(p.Occupied)
		d.float(p.GiantFrac)
	}
	return d.sum()
}

// pinMultigraph is a small hand-built multigraph: two triangles joined by
// a doubled bridge, self-loops (one doubled) on a hub and a leaf, a
// parallel pendant, a path tail, and three isolates.
func pinMultigraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(16)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
		{2, 3}, {3, 2}, {2, 2}, {2, 2}, {6, 6}, {6, 0},
		{7, 1}, {7, 1}, {8, 5}, {9, 8}, {10, 9}, {11, 10}, {11, 11},
		{12, 4},
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestRobustnessBitPins pins RobustnessWith's curves and estimator
// accounting, and SitePercolation's curves, bit for bit. The digests
// were recorded with the clone-and-relabel measurement (a full
// connected-components labelling after every step, and an induced
// subgraph per percolation trial), so they certify that the union-find
// measurement reproduces every giant-component count and consumes the
// same RNG draws.
func TestRobustnessBitPins(t *testing.T) {
	t.Parallel()
	pa := func(kc int, seed uint64) *graph.Graph {
		g, _, err := gen.PA(gen.PAConfig{N: 600, M: 2, KC: kc}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cm, _, err := gen.CM(gen.CMConfig{N: 500, M: 1, Gamma: 2.5}, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"pa-m2", pa(0, 21)},
		{"pa-m2-kc10", pa(10, 22)},
		{"multigraph", pinMultigraph(t)},
		{"cm-m1", cm},
	}
	configs := []struct {
		name string
		cfg  RobustnessConfig
	}{
		{"random", RobustnessConfig{Strategy: RemoveRandom, StepFrac: 0.02, MaxFrac: 1}},
		{"random-coarse", RobustnessConfig{Strategy: RemoveRandom, StepFrac: 0.07, MaxFrac: 0.5}},
		{"degree", RobustnessConfig{Strategy: RemoveHighestDegree, StepFrac: 0.02, MaxFrac: 1}},
		{"degree-partial", RobustnessConfig{Strategy: RemoveHighestDegree, StepFrac: 0.05, MaxFrac: 0.4}},
		{"betweenness", RobustnessConfig{Strategy: RemoveHighestBetweenness, StepFrac: 0.05, MaxFrac: 1, BetweennessPivots: 16}},
		{"betweenness-batched", RobustnessConfig{Strategy: RemoveHighestBetweenness, StepFrac: 0.02, MaxFrac: 1, BetweennessPivots: 32, BatchedBetweenness: true}},
	}
	want := map[string]string{
		"pa-m2/random":                   "424714fc5cd1196f",
		"pa-m2/random-coarse":            "7ad25a27f9f7ae68",
		"pa-m2/degree":                   "ef4fa436d28e16c6",
		"pa-m2/degree-partial":           "5b5802c4efc33093",
		"pa-m2/betweenness":              "3e204b1830d5b3e1",
		"pa-m2/betweenness-batched":      "4e5511d7931cba81",
		"pa-m2-kc10/random":              "48991f75d27ebe8e",
		"pa-m2-kc10/random-coarse":       "f64866460cff7216",
		"pa-m2-kc10/degree":              "a722964b363160a7",
		"pa-m2-kc10/degree-partial":      "40544b097ac62169",
		"pa-m2-kc10/betweenness":         "892fcb4baf8196c7",
		"pa-m2-kc10/betweenness-batched": "d492721bc99b89dd",
		"multigraph/random":              "88f4540562c9a350",
		"multigraph/random-coarse":       "be4bb7063178f2ea",
		"multigraph/degree":              "c021e74ca4563a0c",
		"multigraph/degree-partial":      "70e84029ede3c722",
		"multigraph/betweenness":         "cd827ef1a1497640",
		"multigraph/betweenness-batched": "369de88087cc6aa0",
		"cm-m1/random":                   "0ef5628efd63a7e3",
		"cm-m1/random-coarse":            "93e1737e522d84b4",
		"cm-m1/degree":                   "c20301d2e8e6e7a3",
		"cm-m1/degree-partial":           "439807ccbba46c87",
		"cm-m1/betweenness":              "619fd88b4fb84b18",
		"cm-m1/betweenness-batched":      "eeaa9fccdb2c8726",
		"pa-m2/percolation":              "adc34d359f68af8b",
		"pa-m2-kc10/percolation":         "7e1a81e38422b890",
		"multigraph/percolation":         "e739ff57737832b2",
		"cm-m1/percolation":              "e657397a48d3320b",
	}
	for gi, gc := range graphs {
		for ci, cc := range configs {
			name := gc.name + "/" + cc.name
			pts, steps, err := RobustnessWith(gc.g, cc.cfg, xrand.New(uint64(100*gi+ci)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := robustnessDigest(pts, steps); got != want[name] {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
		}
		name := gc.name + "/percolation"
		pts, err := SitePercolation(gc.g.Freeze(), 12, 3, xrand.New(uint64(7+gi)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := percolationDigest(pts); got != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got, want[name])
		}
	}
}
