package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one request share Req; Parent is
// the ID of the span that caused it, -1 for a root.
type spanRec struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; the file is written once, at exit.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, req uint64, parent int) int {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, spanRec{Name: name, Req: req, ID: id, Parent: parent, Start: now})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAs ends a span whose name is only known once the call returned (the
// engine a check resolved to).
func (t *tracer) endAs(id int, name string) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Name = name
	t.mu.Unlock()
}

// maxTraceRequests caps how many requests' spans the trace file holds; the
// summary always covers every span.
const maxTraceRequests = 2000

// write stores the spans of the first maxTraceRequests requests as JSON
// lines, preceded by the run's stamp.
func (t *tracer) write(path string, stamp map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(stamp); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if s.Req >= maxTraceRequests {
			continue
		}
		if err := enc.Encode(s); err != nil {
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

// traceSummary is what the spans say about one traced run.
type traceSummary struct {
	// layerUS is, per layer span name, the median over replayed requests of
	// the layer's summed self time in that request.
	layerUS map[string]float64
	// solveMS is, per engine or task solve span name, the median duration.
	solveMS map[string]float64
	// layersUS is the median over replayed requests of the time covered by
	// the root's child spans: the sum of the layer self times, with
	// parallel shard groups counted once.
	layersUS  float64
	requests  int // replayed requests
	shardRTT  float64
	shardSkew float64
	spans     int
}

// summarize derives self times from the spans. A span's self time is its
// duration minus the part of it its children cover.
func summarize(spans []spanRec) traceSummary {
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	covered := func(id int) time.Duration {
		var iv [][2]int64
		for _, c := range children[id] {
			iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
		}
		return unionLen(iv)
	}
	perLayer := map[string][]float64{}
	solves := map[string][]float64{}
	var layers, rtts, skews []float64
	sum := traceSummary{spans: len(spans)}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "engine.") || strings.HasPrefix(s.Name, "task."):
			solves[s.Name] = append(solves[s.Name], ms(s.dur()))
		case s.Name == "fabric.shard":
			rtts = append(rtts, ms(s.dur()))
		}
		if s.Name != "replay" {
			continue
		}
		sum.requests++
		layers = append(layers, us(covered(s.ID)))
		self := map[string]time.Duration{}
		var groups []float64
		for _, c := range children[s.ID] {
			cs := spans[c]
			self[cs.Name] += cs.dur() - covered(c)
			if cs.Name == "fabric.shard" {
				groups = append(groups, ms(cs.dur()))
			}
		}
		for name, d := range self {
			perLayer[name] = append(perLayer[name], us(d))
		}
		if len(groups) > 0 {
			slowest := groups[0]
			for _, g := range groups {
				slowest = max(slowest, g)
			}
			skews = append(skews, slowest/median(groups))
		}
	}
	sum.layerUS = map[string]float64{}
	for name, xs := range perLayer {
		sum.layerUS[name] = median(xs)
	}
	sum.solveMS = map[string]float64{}
	for name, xs := range solves {
		sum.solveMS[name] = median(xs)
	}
	sum.layersUS = median(layers)
	sum.shardRTT = median(rtts)
	sum.shardSkew = median(skews)
	return sum
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		ce = max(ce, x[1])
	}
	return time.Duration(total + ce - cs)
}
