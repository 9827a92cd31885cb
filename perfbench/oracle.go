package main

import (
	"fmt"
	"math"
	"strings"

	"scalefree/internal/sim"
)

// degreeBinRatio is the log-bin ratio sim uses for degree series; the
// oracle needs it to turn binned densities back into probability mass.
const degreeBinRatio = 1.3

// checkFigures applies the seed-independent invariants of every expected
// figure to the figures a workload produced. It returns one message per
// violated figure (missing and unexpected figures included), keyed by
// figure ID; an empty map means every figure passed.
func checkFigures(w workload, sc sim.Scale, figs []sim.Figure) map[string]string {
	bad := map[string]string{}
	got := make(map[string]sim.Figure, len(figs))
	for _, f := range figs {
		if _, dup := got[f.ID]; dup {
			bad[f.ID] = "figure produced twice"
		}
		got[f.ID] = f
	}
	want := make(map[string]bool, len(w.figures))
	for _, fs := range w.figures {
		want[fs.id] = true
		f, ok := got[fs.id]
		if !ok {
			bad[fs.id] = "figure missing"
			continue
		}
		if err := checkFigure(fs, sc, f); err != nil {
			bad[fs.id] = err.Error()
		}
	}
	for id := range got {
		if !want[id] {
			bad[id] = "unexpected figure"
		}
	}
	return bad
}

// checkFigure checks one figure against its expectation.
func checkFigure(fs figureSpec, sc sim.Scale, f sim.Figure) error {
	if len(f.Series) != fs.series {
		return fmt.Errorf("%d series, want %d", len(f.Series), fs.series)
	}
	for _, s := range f.Series {
		if len(s.Points) == 0 {
			return fmt.Errorf("series %q has no points", s.Label)
		}
		for _, p := range s.Points {
			if !finite(p.X) || !finite(p.Y) || !finite(p.Err) {
				return fmt.Errorf("series %q: non-finite point %+v", s.Label, p)
			}
			if p.Err < 0 {
				return fmt.Errorf("series %q: negative error bar %+v", s.Label, p)
			}
		}
		if err := checkSeries(fs, sc, s); err != nil {
			return fmt.Errorf("series %q: %w", s.Label, err)
		}
	}
	return nil
}

func checkSeries(fs figureSpec, sc sim.Scale, s sim.Series) error {
	switch fs.kind {
	case kindDegree:
		// A LogBin point at geometric center K covers [K/√r, K·√r) with
		// density P, so its mass is P·K·(r-1)/√r.
		sq := math.Sqrt(degreeBinRatio)
		var mass float64
		for _, p := range s.Points {
			if p.Y <= 0 {
				return fmt.Errorf("non-positive density at k=%g", p.X)
			}
			mass += p.Y * p.X * (degreeBinRatio - 1) / sq
			if lo := p.X / sq; fs.cutoff > 0 && lo > float64(fs.cutoff)*(1+1e-9) {
				return fmt.Errorf("mass above kc=%d in the bin starting at k=%g", fs.cutoff, lo)
			}
		}
		if math.Abs(mass-1) > 1e-6 {
			return fmt.Errorf("binned mass sums to %.9f, want 1", mass)
		}
	case kindHits:
		limit := float64(fs.maxN(sc))
		if err := monotone(s, +1); err != nil {
			return err
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > limit {
				return fmt.Errorf("hits %g at x=%g outside [0, N=%g]", p.Y, p.X, limit)
			}
		}
	case kindMessages:
		if err := monotone(s, +1); err != nil {
			return err
		}
		if s.Points[0].Y <= 0 {
			return fmt.Errorf("no messages at x=%g", s.Points[0].X)
		}
	case kindPositive:
		for _, p := range s.Points {
			if p.Y <= 0 {
				return fmt.Errorf("non-positive value %g at x=%g", p.Y, p.X)
			}
		}
	case kindGiant:
		if strings.Contains(s.Label, "stderr") {
			for _, p := range s.Points {
				if p.Y < 0 {
					return fmt.Errorf("negative stderr %g at x=%g", p.Y, p.X)
				}
			}
			return nil
		}
		if err := monotone(s, -1); err != nil {
			return err
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				return fmt.Errorf("giant fraction %g at x=%g outside [0,1]", p.Y, p.X)
			}
		}
	default:
		return fmt.Errorf("unknown figure kind %d", fs.kind)
	}
	return nil
}

// monotone checks that x strictly increases and y never moves against dir
// (+1 non-decreasing, -1 non-increasing). Means of monotone per-source
// curves summed in a fixed order stay monotone in floating point, so the
// comparison is exact.
func monotone(s sim.Series, dir float64) error {
	for i := 1; i < len(s.Points); i++ {
		a, b := s.Points[i-1], s.Points[i]
		if b.X <= a.X {
			return fmt.Errorf("x not increasing at %g -> %g", a.X, b.X)
		}
		if (b.Y-a.Y)*dir < 0 {
			return fmt.Errorf("y moves the wrong way at x=%g: %g -> %g", b.X, a.Y, b.Y)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
