package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the parser against arbitrary input: it must
// never panic, any successfully parsed graph must round-trip through
// WriteEdgeList with identical structure, and writing the re-parsed graph
// must reproduce the first write byte for byte.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# nodes 3\n0 1\n1 2\n")
	f.Add("0 0\n")
	f.Add("")
	f.Add("# comment only\n")
	f.Add("5 5\n5 5\n")
	f.Add("0 1 2\n")
	f.Add("-1 3\n")
	f.Add("# nodes -5\n")
	f.Add("999999 0\n")
	f.Add("0\t1\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Guard against absurd node counts blowing up memory: the parser
		// allocates per node, so cap the input's numeric magnitude by
		// skipping giant tokens.
		for _, tok := range strings.Fields(input) {
			if len(tok) > 7 {
				t.Skip("token too large for fuzz budget")
			}
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if g.TotalDegree() != 2*g.M() {
			t.Fatalf("invariant broken: total degree %d != 2*edges %d", g.TotalDegree(), g.M())
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write after parse: %v", err)
		}
		first := buf.String()
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output: %v", err)
		}
		if g2.N() != g.N() || g2.M() != g.M() {
			t.Fatalf("round trip changed shape: N %d->%d M %d->%d", g.N(), g2.N(), g.M(), g2.M())
		}
		var again bytes.Buffer
		if err := g2.WriteEdgeList(&again); err != nil {
			t.Fatalf("write after re-parse: %v", err)
		}
		if again.String() != first {
			t.Fatalf("re-write not byte-identical:\n%q\nvs\n%q", first, again.String())
		}
	})
}
