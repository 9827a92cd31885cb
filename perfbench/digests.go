package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"scalefree/internal/sim"
)

// digestsPath is the recorded-digest file, relative to the repository
// root the benchmark runs from.
var digestsPath = filepath.Join("perfbench", "digests.json")

// digestPrefix is how many hex digits of each figure's SHA-256 the
// digest file keeps: 64 bits per figure is ample to catch a changed CSV.
const digestPrefix = 16

// digestFile is the recorded-digest store. Digests are recorded by the
// knob cross-check, so each one is the common output of a serial and a
// default-knob run.
type digestFile struct {
	// GOARCH is the architecture the digests were recorded on: float
	// results may differ where the compiler fuses multiply-adds.
	GOARCH    string                     `json:"goarch"`
	Workloads map[string]workloadDigests `json:"workloads"`
}

type workloadDigests struct {
	// Scale fingerprints the workload scale the digests belong to.
	Scale string `json:"scale"`
	// Seeds maps a seed to its figure-ID → digest-prefix table.
	Seeds map[string]map[string]string `json:"seeds"`
}

func loadDigests(path string) (*digestFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("recorded digests: %w", err)
	}
	var d digestFile
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("recorded digests %s: %w", path, err)
	}
	return &d, nil
}

// scaleFingerprint identifies a workload scale.
func scaleFingerprint(sc sim.Scale) string {
	b, _ := json.Marshal(scaleRecord(sc)) // a Scale without Run always marshals
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// lookup returns the recorded digests of w at seed, nil when the seed was
// not recorded, and an error when the digests belong to another scale.
func (d *digestFile) lookup(w workload, sc sim.Scale, seed uint64) (map[string]string, error) {
	wd, ok := d.Workloads[w.name]
	if !ok {
		return nil, nil
	}
	if wd.Scale != scaleFingerprint(sc) {
		return nil, fmt.Errorf("recorded digests of %s belong to another scale; re-record them with -check-knobs -record", w.name)
	}
	return wd.Seeds[strconv.FormatUint(seed, 10)], nil
}

// checkKnobs runs every selected workload and seed once with serial
// scheduler knobs and once with the defaults, checks both with the oracle,
// requires equal CSV digests, and then records them (-record) or compares
// them with the recorded ones.
func checkKnobs(o options, stdout, stderr io.Writer) int {
	seeds, err := parseSeeds(o.seeds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ws := workloads
	if o.workload != "" {
		w, err := lookupWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []workload{w}
	}
	rec := &digestFile{GOARCH: runtime.GOARCH, Workloads: map[string]workloadDigests{}}
	if !o.tiny {
		loaded, err := loadDigests(digestsPath)
		switch {
		case err == nil:
			rec = loaded
		case !o.record || !errors.Is(err, os.ErrNotExist):
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		if rec.GOARCH != runtime.GOARCH {
			fmt.Fprintf(stderr, "perfbench: digests were recorded on %s, this is %s\n", rec.GOARCH, runtime.GOARCH)
			return 2
		}
	}
	failures := 0
	for _, w := range ws {
		sc := w.scale
		if o.tiny {
			sc = w.tiny
		}
		serial := sc
		serial.Workers, serial.SourceShards, serial.GenWorkers = 1, 1, 1
		wd := rec.Workloads[w.name]
		if o.record && wd.Scale != scaleFingerprint(sc) {
			wd = workloadDigests{Scale: scaleFingerprint(sc), Seeds: map[string]map[string]string{}}
		}
		for _, seed := range seeds {
			var got [2]map[string]string
			msg := ""
			for i, s := range []sim.Scale{serial, sc} {
				it, err := runIteration(w, s, seed, o.workdir)
				if err != nil {
					msg = err.Error()
					break
				}
				if bad := checkFigures(w, s, it.figures); len(bad) > 0 {
					msg = fmt.Sprintf("oracle: %v", bad)
					break
				}
				got[i] = map[string]string{}
				for id, h := range it.figureDigests {
					got[i][id] = h[:digestPrefix]
				}
			}
			key := strconv.FormatUint(seed, 10)
			switch {
			case msg != "":
			case !equalMaps(got[0], got[1]):
				msg = "serial and default knobs produced different CSVs"
			case o.record && !o.tiny:
				wd.Seeds[key] = got[1]
			case !o.tiny:
				if want, err := rec.lookup(w, sc, seed); err != nil {
					msg = err.Error()
				} else if want == nil {
					msg = "no recorded digests for this seed"
				} else if !equalMaps(want, got[1]) {
					msg = "CSVs differ from the recorded digests"
				}
			}
			status := "ok"
			if msg != "" {
				status = "FAIL: " + msg
				failures++
			}
			fmt.Fprintf(stdout, "%s seed=%d: %s\n", w.name, seed, status)
		}
		if o.record && !o.tiny {
			rec.Workloads[w.name] = wd
		}
	}
	if o.record && !o.tiny && failures == 0 {
		if err := writeDigests(digestsPath, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// writeDigests stores d as indented JSON (map keys come out sorted).
func writeDigests(path string, d *digestFile) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return fmt.Errorf("write digests: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write digests: %w", err)
	}
	return nil
}
