package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"scalefree/internal/sim"
)

// iteration is one regeneration of a workload's figures, driven the way
// cmd/experiments drives a default run: per spec a fresh journal, a
// RunControl over it with the stall watchdog armed, Spec.Run, then one
// atomically written CSV per figure. Every field is measured from outside
// the engine.
type iteration struct {
	wall, cpu, setup float64
	// steal is the share of the host's CPU time the hypervisor withheld
	// during the iteration (0 where /proc/stat is unavailable).
	steal float64
	// peakRSS is the iteration's peak resident set in MiB (the process
	// peak so far where the peak mark cannot be reset).
	peakRSS  float64
	specWall map[string]float64

	journalBytes, journalRecords int64
	journalClose                 float64
	csvBytes                     int64
	csvWrite                     float64

	realizationsDone, recovered, failedRealizations int64

	runtime runtimeSample

	figures []sim.Figure
	// digest is the SHA-256 over every figure's ID and CSV bytes in output
	// order; figureDigests holds the per-figure hashes.
	digest        string
	figureDigests map[string]string
}

// prepared is what a regeneration sets up before its first Spec.Run: the
// output directory, the resolved specs, and the first spec's journal and
// run control.
type prepared struct {
	out   string
	specs []sim.Spec
	j     *sim.Journal
	rc    *sim.RunControl
}

// setUp creates a fresh output directory inside workdir, resolves w's
// specs and opens the first one's journal.
func setUp(w workload, sc sim.Scale, seed uint64, workdir string) (*prepared, error) {
	out, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("output dir: %w", err)
	}
	s := &prepared{out: out, specs: make([]sim.Spec, len(w.specs))}
	for i, id := range w.specs {
		if s.specs[i], err = sim.Lookup(id); err != nil {
			os.RemoveAll(out)
			return nil, err
		}
	}
	if s.j, s.rc, err = openSpec(out, s.specs[0], sc, seed); err != nil {
		os.RemoveAll(out)
		return nil, err
	}
	return s, nil
}

// stallWindow is cmd/experiments' default -stall-timeout.
const stallWindow = 10 * time.Minute

// openSpec opens a fresh journal for spec in out and a run control over
// it with the CLI's defaults (one retry, no failure budget).
func openSpec(out string, spec sim.Spec, sc sim.Scale, seed uint64) (*sim.Journal, *sim.RunControl, error) {
	j, err := sim.OpenJournal(filepath.Join(out, spec.ID+".journal"), spec.ID, seed, sc, false)
	if err != nil {
		return nil, nil, err
	}
	return j, sim.NewRunControl(context.Background(), 1, 0, j), nil
}

// runIteration regenerates w's figures at sc and seed under a fresh
// output directory inside workdir, which it removes before returning.
func runIteration(w workload, sc sim.Scale, seed uint64, workdir string) (it iteration, err error) {
	it.specWall = map[string]float64{}
	it.figureDigests = map[string]string{}
	// Start every iteration from the heap and RSS a fresh process would
	// have: without this, memory retained from an earlier iteration's
	// peak sets the next iteration's peak RSS.
	debug.FreeOSMemory()
	resetPeakRSS()
	rt0 := readRuntime()
	st0 := stealSeconds()
	c0 := cpuSeconds()
	t0 := time.Now()

	s, err := setUp(w, sc, seed, workdir)
	if err != nil {
		return it, err
	}
	defer os.RemoveAll(s.out)
	it.setup = time.Since(t0).Seconds()

	all := sha256.New()
	j, rc := s.j, s.rc
	for i, spec := range s.specs {
		ts := time.Now()
		if i > 0 {
			if j, rc, err = openSpec(s.out, spec, sc, seed); err != nil {
				return it, err
			}
		}
		scRun := sc
		scRun.Run = rc
		stopWatch := rc.StartWatchdog(stallWindow, os.Stderr)
		figs, err := spec.Run(scRun, seed)
		stopWatch()
		tc := time.Now()
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		it.journalClose += time.Since(tc).Seconds()
		if err != nil {
			return it, fmt.Errorf("%s: %w", spec.ID, err)
		}
		it.realizationsDone += rc.Progress()
		it.recovered += rc.Recovered()
		it.failedRealizations += int64(len(rc.Failures()))

		tw := time.Now()
		for _, fig := range figs {
			h := sha256.New()
			n, err := writeCSV(filepath.Join(s.out, fig.ID+".csv"), fig, h)
			if err != nil {
				return it, err
			}
			it.csvBytes += n
			sum := h.Sum(nil)
			it.figureDigests[fig.ID] = hex.EncodeToString(sum)
			fmt.Fprintf(all, "%s\n%x\n", fig.ID, sum)
		}
		it.csvWrite += time.Since(tw).Seconds()
		it.specWall[spec.ID] = time.Since(ts).Seconds()
		it.figures = append(it.figures, figs...)
	}
	it.wall = time.Since(t0).Seconds()
	it.cpu = cpuSeconds() - c0
	it.steal = (stealSeconds() - st0) / (it.wall * float64(runtime.NumCPU()))
	it.peakRSS = peakRSSMB()
	it.runtime = readRuntime().sub(rt0)
	it.digest = hex.EncodeToString(all.Sum(nil))

	for _, spec := range s.specs {
		info, err := sim.InspectJournal(filepath.Join(s.out, spec.ID+".journal"))
		if err != nil {
			return it, fmt.Errorf("journal stats: %w", err)
		}
		// The header record plus every slot, done and failure record.
		it.journalBytes += info.FileBytes
		it.journalRecords += int64(1 + len(info.Records) + len(info.Done) + len(info.Failures))
	}
	return it, nil
}

// writeCSV writes fig as cmd/experiments does (temp file, fsync, rename)
// and tees the bytes into h. It returns the number of bytes written.
func writeCSV(path string, fig sim.Figure, h io.Writer) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	tmp := f.Name()
	cw := &countWriter{w: io.MultiWriter(f, h)}
	err = sim.WriteCSV(cw, fig)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	return cw.n, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
