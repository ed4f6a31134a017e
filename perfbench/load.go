package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"sort"
	"sync"
	"time"
)

// outcome is the result of sending one request and checking its answer.
type outcome struct {
	latency time.Duration
	err     error // non-200, transport failure or wrong answer
}

// send posts one request, reads the whole answer, and checks it against the
// oracle. The latency stops when the body is read, before it is decoded.
func send(c *http.Client, base string, r request) outcome {
	start := time.Now()
	resp, err := c.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return outcome{latency: time.Since(start), err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{latency: lat, err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
	if err := r.want.verify(body); err != nil {
		return outcome{latency: lat, err: fmt.Errorf("%s: %w", r.template, err)}
	}
	return outcome{latency: lat}
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	lat    *histogram
	byTmpl map[string]*histogram // latency per template, for the stamp
	// win and winOK split the phase into equal windows by completion time:
	// latencies and successful requests per window.
	win       [windows]*histogram
	winOK     [windows]int
	window    time.Duration
	attempted int
	failed    int
	checks    int // requests sent to /v1/check
	failures  []string
	elapsed   time.Duration
}

// windows is how many equal windows a phase is split into; throughput and
// p50 are reported as the median over the windows, so a burst of outside
// load that hits one window does not move them.
const windows = 10

func newLoopResult() loopResult {
	r := loopResult{lat: new(histogram), byTmpl: map[string]*histogram{}}
	for i := range r.win {
		r.win[i] = new(histogram)
	}
	return r
}

// record files one finished request: its template, latency, whether it
// succeeded, and the window it finished in.
func (r *loopResult) record(tmpl string, d time.Duration, ok bool, w int) {
	w = min(w, windows-1)
	r.win[w].add(d)
	if ok {
		r.winOK[w]++
	}
	r.lat.add(d)
	h := r.byTmpl[tmpl]
	if h == nil {
		h = new(histogram)
		r.byTmpl[tmpl] = h
	}
	h.add(d)
}

func (r *loopResult) merge(o loopResult) {
	r.lat.merge(o.lat)
	for i := range r.win {
		r.win[i].merge(o.win[i])
		r.winOK[i] += o.winOK[i]
	}
	for t, h := range o.byTmpl {
		if r.byTmpl[t] == nil {
			r.byTmpl[t] = new(histogram)
		}
		r.byTmpl[t].merge(h)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.checks += o.checks
	if len(r.failures) < 5 {
		r.failures = append(r.failures, o.failures...)
	}
}

// throughput is the median over the windows of successful requests per
// second.
func (r *loopResult) throughput() float64 {
	var xs []float64
	for _, n := range r.winOK {
		xs = append(xs, float64(n)/r.window.Seconds())
	}
	return median(xs)
}

// windowedQuantile is the median over the windows of each window's
// q-quantile.
func (r *loopResult) windowedQuantile(q float64) time.Duration {
	var xs []float64
	for _, h := range r.win {
		xs = append(xs, float64(h.quantile(q)))
	}
	return time.Duration(median(xs))
}

// byTemplate is the sample count and median latency of each template, for
// the run's stamp.
func (r *loopResult) byTemplate() map[string]any {
	out := map[string]any{}
	for t, h := range r.byTmpl {
		out[t] = map[string]any{"n": h.n, "p50_ms": ms(h.quantile(0.5))}
	}
	return out
}

// closedLoop runs clients goroutines for dur; each sends its next request
// only after the previous answer arrived. iter, when non-nil, replaces the
// plain send: it is handed the client index and returns the outcome of the
// request it sent (the traced phase records spans around it).
func closedLoop(f *fleet, gen generator, clients int, dur time.Duration,
	iter func(client int, r request) outcome) loopResult {
	if iter == nil {
		iter = func(_ int, r request) outcome { return send(f.client, f.front.url, r) }
	}
	parts := make([]loopResult, clients)
	for i := range parts {
		parts[i] = newLoopResult()
	}
	window := dur / windows
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &parts[i]
			for time.Now().Before(deadline) {
				r := gen.next()
				o := iter(i, r)
				p.attempted++
				p.record(r.template, o.latency, o.err == nil, int(time.Since(start)/window))
				if r.path == "/v1/check" {
					p.checks++
				}
				if o.err != nil {
					p.failed++
					if len(p.failures) < 5 {
						p.failures = append(p.failures, o.err.Error())
					}
				}
			}
		}(i)
	}
	wg.Wait()
	out := newLoopResult()
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	out.window = window
	return out
}

// subBits sets the histogram's resolution: 2^subBits buckets per power of
// two, so a bucket is at most 1/128 of the values it holds wide.
const subBits = 7

// histogram counts durations in log-linear buckets: constant memory however
// many samples a run takes, so the benchmark's own bookkeeping does not
// move peak_rss_mb.
type histogram struct {
	counts [64 << subBits]uint64
	n      uint64
}

func bucketOf(d time.Duration) int {
	v := uint64(max(d, 0))
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)<<subBits + int(v>>e) - 1<<subBits
}

// bucketRange is the lowest value a bucket holds and its width.
func bucketRange(b int) (lo, width float64) {
	if b < 1<<subBits {
		return float64(b), 1
	}
	e := b>>subBits - 1
	m := uint64(b&(1<<subBits-1)) + 1<<subBits
	return float64(m << e), float64(uint64(1) << e)
}

func (h *histogram) add(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile is the nearest-rank q-quantile, placed within its bucket by
// rank.
func (h *histogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, width := bucketRange(b)
			return time.Duration(lo + width*(float64(rank-seen)-0.5)/float64(c))
		}
		seen += c
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
