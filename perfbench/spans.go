package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"greedy80211/internal/trace"
)

// span is one timed interval around a call into a layer of the program.
// Parent indexes the enclosing span in the tracer (-1 for a root); a
// layer's self time is its duration minus the part its children cover.
type span struct {
	Name   string
	Layer  string
	Track  string
	Parent int
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id for end; a nil tracer returns -1.
func (t *tracer) begin(layer, name, track string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Track: track, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-finished span (for intervals measured
// elsewhere, such as the campaign engine's own span log).
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// find returns the id of the first span called name, or -1.
func (t *tracer) find(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// duration is the wall time of span id in seconds.
func (t *tracer) duration(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id]
	return s.End.Sub(s.Start).Seconds()
}

// selfTimes returns every span's self time in seconds: its duration
// minus the union of its children's intervals clipped to it. Children
// may overlap each other (parallel units), so the union, not the sum,
// is subtracted.
func (t *tracer) selfTimes() []float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End.Sub(s.Start).Seconds() - covered(s, children[i])
	}
	return self
}

// covered is how many seconds of parent the union of kids spans.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds()
}

// layerSelf sums self time per layer.
func (t *tracer) layerSelf() map[string]float64 {
	out := make(map[string]float64)
	for i, self := range t.selfTimes() {
		out[t.spans[i].Layer] += self
	}
	return out
}

// writeChrome writes the spans as Perfetto-loadable Chrome trace JSON,
// each slice carrying its layer and self time.
func (t *tracer) writeChrome(path, process string) error {
	if len(t.spans) == 0 {
		return nil
	}
	epoch := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	self := t.selfTimes()
	out := make([]trace.Span, len(t.spans))
	for i, s := range t.spans {
		out[i] = trace.Span{
			Track:   s.Track,
			Name:    s.Name,
			Cat:     s.Layer,
			StartUs: float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			DurUs:   float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args:    map[string]any{"layer": s.Layer, "self_ms": self[i] * 1e3},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing span trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = trace.WriteChromeSpans(bw, process, out)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing span trace: %w", err)
	}
	return nil
}
