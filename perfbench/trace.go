package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// The layers a traced replay attributes time to, named after the
// repository's modules.
var traceLayers = []string{"gen", "graph", "search", "stats", "metrics"}

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's start; parent is the index of the enclosing span (-1 = none).
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// tracer keeps spans in memory; it is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(name, layer string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.t0), Parent: parent})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the time its children
// cover (children of one goroutine never overlap).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByLayer sums self time per layer over the spans that name one.
func (t *tracer) selfByLayer() map[string]float64 {
	out := map[string]float64{}
	for i, d := range t.selfTimes() {
		if l := t.spans[i].Layer; l != "" {
			out[l] += d.Seconds()
		}
	}
	return out
}

// layerShares returns each layer's self time as a share of the root
// span's wall time.
func (t *tracer) layerShares() map[string]float64 {
	wall := (t.spans[0].End - t.spans[0].Start).Seconds()
	out := map[string]float64{}
	for l, d := range t.selfByLayer() {
		out[l] = d / wall
	}
	return out
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]float64 {
	out := map[string]float64{}
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] += d.Seconds()
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
