package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalefree/internal/sim"
)

// TestMain lets the test binary serve as its own set-up probe, as the
// perfbench binary does.
func TestMain(m *testing.M) {
	if req := os.Getenv(setupProbeEnv); req != "" {
		os.Exit(setupProbe(req, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runTiny runs the command at the self-test scale and returns the exit
// code and the parsed final line.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append([]string{"-tiny", "-seconds", "0.001", "-workdir", t.TempDir()}, args...), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result (%v):\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, res, out.String()
}

// TestEveryWorkloadPassesOracle runs each workload untraced and checks
// that the one command prints every end-to-end metric with its unit.
func TestEveryWorkloadPassesOracle(t *testing.T) {
	for _, w := range workloads {
		code, res, _ := runTiny(t, "-workload", w.name, "-trace", "0")
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted != len(w.figures) {
			t.Errorf("%s: exit %d, result %+v", w.name, code, res)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 || math.IsNaN(got.Value) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, m.name, got, ok, m.unit)
			}
		}
	}
}

// TestTracedReplayCoversEveryLayer runs each workload traced: the result
// carries exactly the per-layer metrics, and across the workloads the
// spans name every layer.
func TestTracedReplayCoversEveryLayer(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloads {
		code, res, out := runTiny(t, "-workload", w.name, "-trace", "1")
		if code != 0 || !res.Correct {
			t.Fatalf("%s: exit %d, result correct=%v", w.name, code, res.Correct)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit || math.IsNaN(got.Value) || got.Value < 0 {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, m.name, got, ok)
			}
		}
		if c := res.Metrics["trace.coverage"].Value; c <= 0.5 || c > 1 {
			t.Errorf("%s: trace.coverage = %v", w.name, c)
		}
		if o := res.Metrics["trace.overhead"].Value; o <= 0 {
			t.Errorf("%s: trace.overhead = %v", w.name, o)
		}
		var detail struct {
			Perfbench struct {
				TraceFile string `json:"trace_file"`
			} `json:"perfbench"`
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
			t.Fatalf("%s: detail line: %v", w.name, err)
		}
		f, err := os.Open(detail.Perfbench.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: span line %q: %v", w.name, sc.Text(), err)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", w.name, s)
			}
			seen[s.Layer] = true
		}
		f.Close()
	}
	for _, l := range traceLayers {
		if !seen[l] {
			t.Errorf("no workload's replay produced a %s span", l)
		}
	}
}

// TestKnobCrossCheck runs the serial-vs-default digest comparison.
func TestKnobCrossCheck(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-check-knobs", "-tiny", "-seeds", "1-2", "-workdir", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	if n := strings.Count(out.String(), ": ok"); n != 2*len(workloads) {
		t.Errorf("%d ok lines, want %d:\n%s", n, 2*len(workloads), out.String())
	}
}

// TestOracleRejectsBrokenFigures feeds the oracle figures that violate
// each invariant.
func TestOracleRejectsBrokenFigures(t *testing.T) {
	pts := func(ys ...float64) []sim.Point {
		out := make([]sim.Point, len(ys))
		for i, y := range ys {
			out[i] = sim.Point{X: float64(i + 1), Y: y}
		}
		return out
	}
	sc := sim.Scale{NSearch: 100}
	hits := figureSpec{id: "h", kind: kindHits, series: 1, maxN: nSearch}
	giant := figureSpec{id: "g", kind: kindGiant, series: 1}
	degree := figureSpec{id: "d", kind: kindDegree, series: 1, cutoff: 10}
	mass1 := 1 / (20 * (degreeBinRatio - 1) / math.Sqrt(degreeBinRatio))
	cases := []struct {
		name string
		fs   figureSpec
		s    sim.Series
	}{
		{"hits decrease", hits, sim.Series{Points: pts(1, 5, 4)}},
		{"hits above N", hits, sim.Series{Points: pts(1, 5, 101)}},
		{"NaN", hits, sim.Series{Points: pts(1, math.NaN())}},
		{"giant increases", giant, sim.Series{Points: pts(0.9, 0.95)}},
		{"giant above 1", giant, sim.Series{Points: pts(1.5, 1.2)}},
		{"mass above kc", degree, sim.Series{Points: []sim.Point{{X: 20, Y: mass1}}}},
		{"mass not 1", figureSpec{id: "d", kind: kindDegree, series: 1}, sim.Series{Points: []sim.Point{{X: 20, Y: mass1 / 2}}}},
	}
	for _, c := range cases {
		if err := checkFigure(c.fs, sc, sim.Figure{ID: c.fs.id, Series: []sim.Series{c.s}}); err == nil {
			t.Errorf("%s: oracle accepted %+v", c.name, c.s)
		}
	}
	if err := checkFigure(figureSpec{id: "d", kind: kindDegree, series: 1}, sc, sim.Figure{Series: []sim.Series{{Points: []sim.Point{{X: 20, Y: mass1}}}}}); err != nil {
		t.Errorf("oracle rejected a unit-mass bin: %v", err)
	}
	w := workload{figures: []figureSpec{hits}}
	if bad := checkFigures(w, sc, nil); bad["h"] == "" {
		t.Errorf("missing figure not reported: %v", bad)
	}
}

// TestRecordedDigestsMatchScales checks that digests.json holds digests
// for every workload at its current scale.
func TestRecordedDigestsMatchScales(t *testing.T) {
	d, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wd, ok := d.Workloads[w.name]
		if !ok || len(wd.Seeds) == 0 {
			t.Errorf("%s: no recorded digests", w.name)
			continue
		}
		if wd.Scale != scaleFingerprint(w.scale) {
			t.Errorf("%s: digests recorded at another scale", w.name)
		}
		for seed, figs := range wd.Seeds {
			if len(figs) != len(w.figures) {
				t.Errorf("%s seed %s: %d figure digests, want %d", w.name, seed, len(figs), len(w.figures))
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root names exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

// TestReplayCheckDetectsDrift replays hapa-degree at the self-test scale,
// checks it against the engine's figures, and then against figures with
// one changed value and one missing series, which it must report.
func TestReplayCheckDetectsDrift(t *testing.T) {
	w, err := lookupWorkload("hapa-degree")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 3
	it, err := runIteration(w, w.tiny, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(newTracer(), w.tiny)
	if err := rp.replay(w, seed); err != nil {
		t.Fatal(err)
	}
	if bad := rp.check(w, it.figures); len(bad) > 0 {
		t.Fatalf("replay differs from the engine: %v", bad)
	}
	figs := make([]sim.Figure, len(it.figures))
	for i, f := range it.figures {
		figs[i] = f
		figs[i].Series = append([]sim.Series(nil), f.Series...)
	}
	pts := append([]sim.Point(nil), figs[0].Series[1].Points...)
	pts[0].Y *= 1.001
	figs[0].Series[1].Points = pts
	figs[2].Series = figs[2].Series[1:]
	bad := rp.check(w, figs)
	if bad[figs[0].ID] == "" || bad[figs[2].ID] == "" || bad[figs[1].ID] != "" {
		t.Errorf("check reported %v; want %s and %s only", bad, figs[0].ID, figs[2].ID)
	}
}

// TestNetWall checks the steal correction of wall times.
func TestNetWall(t *testing.T) {
	for _, c := range []struct{ steal, want float64 }{{0, 3}, {0.2, 2}, {0.4, 1.5}} {
		if got := netWall(iteration{wall: 3, steal: c.steal}); got != c.want {
			t.Errorf("netWall(wall 3, steal %v) = %v, want %v", c.steal, got, c.want)
		}
	}
}
