package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// setupProbeEnv names the environment variable that turns this binary into
// a set-up probe: it holds a JSON probeRequest, and the process prepares a
// regeneration up to its first Spec.Run, reports that it is ready, and
// tears the preparation down again.
const setupProbeEnv = "PERFBENCH_SETUP_PROBE"

// probeReady starts the line a probe prints once it could call Spec.Run;
// the line goes on with the probe's CPU time so far in seconds.
const probeReady = "ready"

// probeRequest says which regeneration a probe prepares.
type probeRequest struct {
	Workload string `json:"workload"`
	Tiny     bool   `json:"tiny"`
	Seed     uint64 `json:"seed"`
	Workdir  string `json:"workdir"`
}

// setUpSample is one probe's set-up cost.
type setUpSample struct {
	// cpu is the probe's user+system CPU time from its start to its ready
	// line: process creation and exec, Go runtime and package
	// initialization, output directory, spec lookup, journal open and run
	// control.
	cpu float64
	// wall is the time from starting the probe to reading its ready line;
	// it adds the journal's fsync wait and scheduling delays.
	wall float64
}

// timeSetUpProbe starts this binary as a set-up probe, reads its ready
// line, and waits for it to exit.
func timeSetUpProbe(workload string, tiny bool, seed uint64, workdir string) (setUpSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: %w", err)
	}
	req, err := json.Marshal(probeRequest{workload, tiny, seed, workdir})
	if err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupProbeEnv+"="+string(req))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: %w", err)
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: %w", err)
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	wall := time.Since(t0).Seconds()
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	word, cpu, _ := strings.Cut(strings.TrimSpace(line), " ")
	c, err := strconv.ParseFloat(cpu, 64)
	if rerr != nil || word != probeReady || err != nil {
		return setUpSample{}, fmt.Errorf("set-up probe: no ready line (got %q)", line)
	}
	return setUpSample{cpu: c, wall: wall}, nil
}

// setupProbe runs the probe side: it prepares the regeneration described
// by req as runIteration does, prints the ready line, and tears it down.
// It returns the process exit code.
func setupProbe(req string, stdout, stderr io.Writer) int {
	var r probeRequest
	if err := json.Unmarshal([]byte(req), &r); err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
		return 2
	}
	w, err := lookupWorkload(r.Workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
		return 2
	}
	sc := w.scale
	if r.Tiny {
		sc = w.tiny
	}
	s, err := setUp(w, sc, r.Seed, r.Workdir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s %.9f\n", probeReady, cpuSeconds())
	err = s.j.Close()
	if rerr := os.RemoveAll(s.out); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up probe:", err)
		return 2
	}
	return 0
}
