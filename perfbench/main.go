// Command perfbench is the repository's end-to-end benchmark: it times the
// regeneration of paper figures through the experiment engine, checks
// every figure against seed-independent invariants and recorded digests,
// and reports end-to-end metrics (untraced) or per-layer metrics (traced
// replay). See README.md in this directory.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload hapa-degree -seed 1 -seconds 25 -trace 0
//	perfbench -check-knobs -seeds 0-20,2007 [-record]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"scalefree/internal/sim"
)

func main() {
	if req := os.Getenv(setupProbeEnv); req != "" {
		os.Exit(setupProbe(req, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	workdir    string
	tiny       bool
	checkKnobs bool
	record     bool
	seeds      string
}

// run executes one command line and returns the process exit code: 0 on
// a correct run, 1 when any figure failed, 2 on a usage or setup error
// (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (hapa-degree, dapa-nf-rw, search-sweep, attack); -check-knobs: empty = all")
	fs.Uint64Var(&o.seed, "seed", 2007, "experiment seed passed to every spec")
	fs.Float64Var(&o.seconds, "seconds", 25, "measurement budget in seconds; iterations repeat until it is spent")
	fs.IntVar(&o.trace, "trace", 0, "0 = untraced end-to-end metrics, 1 = traced replay with per-layer metrics")
	fs.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for per-iteration output directories and trace files")
	fs.BoolVar(&o.tiny, "tiny", false, "run the self-test scale instead of the measured scale (digests are not compared)")
	fs.BoolVar(&o.checkKnobs, "check-knobs", false, "knob cross-check: run each workload and seed at Workers=SourceShards=GenWorkers=1 and at the defaults, require equal CSV digests")
	fs.BoolVar(&o.record, "record", false, "with -check-knobs: store the cross-checked digests in perfbench/digests.json")
	fs.StringVar(&o.seeds, "seeds", "2007", "with -check-knobs: comma-separated seeds or ranges (0-10,2007)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.checkKnobs {
		return checkKnobs(o, stdout, stderr)
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	w, err := lookupWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var rec *digestFile
	if !o.tiny {
		if rec, err = loadDigests(digestsPath); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	res, err := measure(w, o, rec, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	detail, err := json.Marshal(map[string]any{"perfbench": res.detail})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(detail))
	final, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(final))
	if !res.result.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUpsPerIteration is how many set-up probes a run times before each
// iteration; setup_s is the median of their CPU time. A probe is a fresh
// process measured from its start to the point where it would call the
// first Spec.Run (see setup.go). CPU time rather than wall time, because
// the wall time of a 2 ms start-up mostly measures the host: on a shared
// VM, hypervisor steal doubled it for minutes at a time, and the journal's
// fsync adds the disk's latency. The probes' wall times and each
// iteration's own in-process set-up are in the detail record. Spreading
// the probes over the run keeps a burst of host load from setting the
// median.
const setUpsPerIteration = 4

// runOutcome pairs the final line with the detail record printed before it.
type runOutcome struct {
	result result
	detail map[string]any
}

// measure runs w for the time budget: untraced iterations (all of them
// with -trace 0; half the budget with -trace 1, followed by one traced
// replay). Every iteration's figures pass through the oracle and the
// digest checks; each expected figure of each iteration is one attempted
// operation.
func measure(w workload, o options, rec *digestFile, stderr io.Writer) (runOutcome, error) {
	start := time.Now()
	sc := w.scale
	if o.tiny {
		sc = w.tiny
	}
	host := readHost()
	var warnings []string
	if host.GOMAXPROCS > host.Nproc {
		warnings = append(warnings, fmt.Sprintf("GOMAXPROCS=%d exceeds nproc=%d; figures oversubscribe the CPUs", host.GOMAXPROCS, host.Nproc))
	}
	var want map[string]string
	switch {
	case o.tiny:
		warnings = append(warnings, "tiny self-test scale: recorded digests not compared")
	case rec.GOARCH != host.GOARCH:
		warnings = append(warnings, fmt.Sprintf("digests were recorded on %s; not compared on %s", rec.GOARCH, host.GOARCH))
	default:
		var err error
		if want, err = rec.lookup(w, sc, o.seed); err != nil {
			return runOutcome{}, err
		}
		if want == nil {
			warnings = append(warnings, fmt.Sprintf("no recorded digests for seed %d; checking iteration-to-iteration equality only", o.seed))
		}
	}

	budget := o.seconds
	if o.trace == 1 {
		budget /= 2
	}
	var (
		its       []iteration
		attempted int
		failed    int
		problems  = map[string]string{}
		setups    []setUpSample
		// firstFigures are the first iteration's figures, which the
		// traced replay must reproduce.
		firstFigures []sim.Figure
	)
	for {
		for range setUpsPerIteration {
			probe, err := timeSetUpProbe(w.name, o.tiny, o.seed, o.workdir)
			if err != nil {
				return runOutcome{}, err
			}
			setups = append(setups, probe)
		}
		it, err := runIteration(w, sc, o.seed, o.workdir)
		attempted += len(w.figures)
		if err != nil {
			failed += len(w.figures)
			problems["run"] = err.Error()
			break
		}
		bad := checkFigures(w, sc, it.figures)
		for _, fs := range w.figures {
			got := it.figureDigests[fs.id]
			switch {
			case len(its) > 0 && got != its[0].figureDigests[fs.id]:
				bad[fs.id] = "CSV differs from the first iteration of this run"
			case want != nil && (len(got) < digestPrefix || got[:digestPrefix] != want[fs.id]):
				bad[fs.id] = "CSV digest differs from the recorded digest"
			}
		}
		failed += len(bad)
		for id, msg := range bad {
			problems[id] = msg
		}
		if len(its) == 0 {
			firstFigures = it.figures
		}
		it.figures = nil
		its = append(its, it)
		elapsed := time.Since(start).Seconds()
		if len(bad) > 0 || elapsed+median(field(its, func(it iteration) float64 { return it.wall })) > budget {
			break
		}
	}
	for id, msg := range problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s: %s\n", w.name, id, msg)
	}

	detail := map[string]any{
		"workload": w.name, "seed": o.seed, "scale": scaleRecord(sc), "host": host,
		"iterations": len(its), "warnings": warnings, "problems": problems,
	}
	res := result{Correct: failed == 0 && len(its) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if len(its) == 0 {
		return runOutcome{res, detail}, nil
	}
	detail["digest"] = its[0].digest
	wall := field(its, func(it iteration) float64 { return it.wall })
	net := field(its, func(it iteration) float64 { return netWall(it) })
	steal := field(its, func(it iteration) float64 { return it.steal })
	cpu := field(its, func(it iteration) float64 { return it.cpu })
	setupCPU := make([]float64, len(setups))
	setupWall := make([]float64, len(setups))
	for i, s := range setups {
		setupCPU[i], setupWall[i] = s.cpu, s.wall
	}
	rss := field(its, func(it iteration) float64 { return it.peakRSS })
	detail["per_iteration"] = map[string][]float64{"wall_s": wall, "steal": steal, "cpu_s": cpu, "peak_rss_mb": rss}
	detail["timings"] = map[string]timingSummary{"wall_s": summarize(wall), "net_wall_s": summarize(net), "cpu_s": summarize(cpu), "setup_s": summarize(setupCPU), "setup_wall_s": summarize(setupWall),
		"iteration_setup_s": summarize(field(its, func(it iteration) float64 { return it.setup })), "peak_rss_mb": summarize(rss)}

	if o.trace == 0 {
		v := map[string]float64{
			"wall_s": median(net), "cpu_s": median(cpu), "setup_s": median(setupCPU),
			"peak_rss_mb": median(rss), "ok_frac": float64(attempted-failed) / float64(attempted),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
		return runOutcome{res, detail}, nil
	}

	// The replay is one more attempt at every figure: it fails where it
	// errs or does not reproduce the engine's figure.
	t := newTracer()
	rp := newReplayer(t, sc)
	res.Attempted += len(w.figures)
	if err := rp.replay(w, o.seed); err != nil {
		res.Correct = false
		res.Failed += len(w.figures)
		problems["replay"] = err.Error()
		fmt.Fprintf(stderr, "perfbench: %s: replay: %v\n", w.name, err)
		return runOutcome{res, detail}, nil
	}
	if bad := rp.check(w, firstFigures); len(bad) > 0 {
		res.Correct = false
		res.Failed += len(bad)
		for id, msg := range bad {
			problems["replay "+id] = msg
			fmt.Fprintf(stderr, "perfbench: %s: replay %s: %s\n", w.name, id, msg)
		}
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.trace.jsonl", w.name, o.seed))
	if err := t.write(path); err != nil {
		return runOutcome{}, err
	}
	detail["trace_file"] = path
	detail["trace_spans"] = len(t.spans)
	detail["layer_share"] = t.layerShares()
	res.Metrics = layerMetrics(w, its, t, rp)
	return runOutcome{res, detail}, nil
}

// field extracts one number from every iteration.
func field(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// scaleRecord is the resolved workload scale without the run supervisor.
func scaleRecord(sc sim.Scale) sim.Scale {
	sc.Run = nil
	return sc
}

// parseSeeds parses "0-3,2007" into [0 1 2 3 2007].
func parseSeeds(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	return out, nil
}
