package graph

import (
	"bytes"
	"strings"
	"testing"

	"scalefree/internal/xrand"
)

func TestEdgeListRoundTrip(t *testing.T) {
	t.Parallel()
	g := New(5)
	mustAdd(t, g, 0, 1)
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 3, 3) // self-loop
	mustAdd(t, g, 3, 4)
	mustAdd(t, g, 3, 4) // parallel edge

	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip: N=%d M=%d, want N=%d M=%d", got.N(), got.M(), g.N(), g.M())
	}
	if got.EdgeMultiplicity(3, 4) != 2 {
		t.Fatalf("parallel edge lost: mult=%d", got.EdgeMultiplicity(3, 4))
	}
	if got.EdgeMultiplicity(3, 3) != 1 {
		t.Fatalf("self-loop lost: mult=%d", got.EdgeMultiplicity(3, 3))
	}
	if got.Degree(3) != g.Degree(3) {
		t.Fatalf("degree(3): got %d want %d", got.Degree(3), g.Degree(3))
	}
}

// TestWriteEdgeListOrder pins the output order: node ascending, each
// node's adjacency in insertion order, smaller endpoint first, one line
// per parallel copy and per self-loop.
func TestWriteEdgeListOrder(t *testing.T) {
	t.Parallel()
	g := New(5)
	for _, e := range [][2]int{{3, 4}, {0, 2}, {3, 3}, {1, 0}, {4, 3}, {2, 2}, {2, 2}, {0, 4}} {
		mustAdd(t, g, e[0], e[1])
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# nodes 5\n0 2\n0 1\n0 4\n2 2\n2 2\n3 4\n3 3\n3 4\n"
	if got := buf.String(); got != want {
		t.Fatalf("edge list:\n%s\nwant:\n%s", got, want)
	}
}

// TestWritersReproducible writes the same multigraph twice with each
// writer: the bytes must match (they used to follow map iteration order).
func TestWritersReproducible(t *testing.T) {
	t.Parallel()
	rng := xrand.New(3)
	g := New(200)
	for i := 0; i < 600; i++ {
		mustAdd(t, g, rng.Intn(200), rng.Intn(200))
	}
	write := func(dot bool) string {
		var buf bytes.Buffer
		var err error
		if dot {
			err = g.WriteDOT(&buf, "g")
		} else {
			err = g.WriteEdgeList(&buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, dot := range []bool{false, true} {
		if first, second := write(dot), write(dot); first != second {
			t.Fatalf("dot=%v: two writes of one graph differ", dot)
		}
	}
}

func TestEdgeListRoundTripRandomProperty(t *testing.T) {
	t.Parallel()
	for seed := uint64(0); seed < 20; seed++ {
		rng := xrand.New(seed)
		n := rng.IntRange(1, 60)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			if err := g.AddEdge(rng.Intn(n), rng.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("seed %d: N/M mismatch", seed)
		}
		for u := 0; u < n; u++ {
			if got.Degree(u) != g.Degree(u) {
				t.Fatalf("seed %d: degree(%d) %d != %d", seed, u, got.Degree(u), g.Degree(u))
			}
			for v := u; v < n; v++ {
				if got.EdgeMultiplicity(u, v) != g.EdgeMultiplicity(u, v) {
					t.Fatalf("seed %d: mult(%d,%d) mismatch", seed, u, v)
				}
			}
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	t.Parallel()
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
}

func TestReadEdgeListHeaderIsolatedNodes(t *testing.T) {
	t.Parallel()
	g, err := ReadEdgeList(strings.NewReader("# nodes 10\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("N=%d, want 10 (header should pre-size)", g.N())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	t.Parallel()
	in := "# a comment\n\n0 1\n# another\n1 2\n\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M=%d", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	t.Parallel()
	cases := map[string]string{
		"three fields":  "0 1 2\n",
		"non-numeric":   "a b\n",
		"negative node": "-1 0\n",
		"bad header":    "# nodes x\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error for %q", name, in)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	t.Parallel()
	g := New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "tri"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "tri" {`, "--", "}"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Node 3 is isolated and must be omitted; nodes 0-2 appear.
	if strings.Contains(out, "  3 [") {
		t.Error("isolated node should be skipped")
	}
	if edges := strings.Count(out, "--"); edges != 3 {
		t.Errorf("DOT has %d edges, want 3", edges)
	}
	// Default name fallback.
	buf.Reset()
	if err := g.WriteDOT(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `graph "overlay" {`) {
		t.Error("default graph name missing")
	}
}
