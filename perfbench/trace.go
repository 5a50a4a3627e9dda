package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share req; a
// child's parent is the span whose work it accounts for. Children are
// replays of the work below a call, timed right after it, so a span's self
// time is its duration minus the durations of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; it is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

// timed runs fn inside a span and returns the span id.
func (t *tracer) timed(name string, parent, req int, fn func()) int {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
	return id
}

// selfTimes returns each span's duration minus its children's. It can be
// negative when a replay ran slower than the call it stands for; it is not
// clamped, so a request's layer self times always add up to the request.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// durations returns the durations of the spans called name.
func (t *tracer) durations(name string) durations {
	var ds durations
	for i := range t.spans {
		if t.spans[i].Name == name {
			ds = append(ds, t.spans[i].dur())
		}
	}
	return ds
}

// selfOf returns the self times of the spans called name.
func (t *tracer) selfOf(name string, self []time.Duration) durations {
	var ds durations
	for i := range t.spans {
		if t.spans[i].Name == name {
			ds = append(ds, self[i])
		}
	}
	return ds
}

func (t *tracer) count(name string) int { return len(t.durations(name)) }

// layerTable prints each layer's share of the time spent in
// ttserve.request spans: the self time of every span under a request whose
// name starts with the layer's name, over the total request time. Spans
// outside requests (ingest, builds) are not part of the table.
func (t *tracer) layerTable(workload string) string {
	self := t.selfTimes()
	root := make([]int, len(t.spans)) // parents are always opened first
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for i := range t.spans {
		root[i] = i
		if p := t.spans[i].Parent; p >= 0 {
			root[i] = root[p]
		}
		if t.spans[root[i]].Name != "ttserve.request" {
			continue
		}
		layer, _, _ := strings.Cut(t.spans[i].Name, ".")
		byLayer[layer] += self[i]
		if i == root[i] {
			total += t.spans[i].dur()
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "layer table, %s (self time as a share of ttserve.request, %d requests, %.1f ms in total)\n",
		workload, t.count("ttserve.request"), ms(total))
	fmt.Fprintf(&b, "  %-10s %10s %8s\n", "layer", "self ms", "share")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-10s %10.1f %7.1f%%\n", l, ms(byLayer[l]), 100*ratio(float64(byLayer[l]), float64(total)))
	}
	return b.String()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
