// Command perfbench is the repository's end-to-end benchmark: seeded
// request streams sent through in-process accesscheck/server handlers on
// loopback listeners, configured with cmd/accserve's defaults, with every
// answer checked against a known verdict.
//
//	perfbench --workload cold-mix|hot-mix|fabric-wide --seed N --seconds S --trace 0|1
//
// Workloads (closed loops driven from this process):
//
//   - cold-mix: nproc clients pull unique renamed checks (all five engines)
//     and containment/relevance/chase tasks from one seeded queue; a seeded
//     1 in 8 is queued twice in a row. The solve dominates and the cache
//     only sees writes.
//   - hot-mix: nproc clients draw Zipf-skewed from 256 cheap checks plus
//     the task scenarios, all cached during set-up. Decode, parse,
//     fingerprint, lookup and encode are the whole cost.
//   - fabric-wide: one client sends unique renamed wide checks to a
//     coordinator fronting two workers, so every request plans, dispatches
//     and merges.
//
// With --trace 0 the run measures for S seconds untraced and reports the
// end-to-end metrics. With --trace 1 it measures S/2 seconds untraced (for
// /metrics deltas and the untraced p50), then S/2 seconds in which each
// client alternates a traced request with a replay of another request
// through each layer's public calls, and reports the per-layer metrics;
// the spans are written to .bench_build/traces/ at exit.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer, a non-200 or a
// partial answer where an exact one is expected makes correct false and
// the exit code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	clients int
	fabric  bool
	gen     func(seed uint64) generator
	// warm runs after the fleet is up and before timing starts.
	warm func(f *fleet, gen generator) error
}

func workloads(nproc int) map[string]workloadSpec {
	return map[string]workloadSpec{
		"cold-mix": {
			clients: nproc,
			gen:     func(seed uint64) generator { return newColdGen(seed) },
			warm:    func(f *fleet, gen generator) error { return warmN(f, gen, coldWarmRequests) },
		},
		"hot-mix": {
			clients: nproc,
			gen:     func(seed uint64) generator { return newHotGen(seed) },
			warm: func(f *fleet, gen generator) error {
				for _, r := range gen.(*zipfGen).pop {
					if o := send(f.client, f.front.url, r); o.err != nil {
						return o.err
					}
				}
				return nil
			},
		},
		"fabric-wide": {
			clients: 1,
			fabric:  true,
			gen:     func(seed uint64) generator { return newFabricGen(seed) },
			warm: func(f *fleet, gen generator) error {
				if err := checkFabricOracle(); err != nil {
					return err
				}
				return warmN(f, gen, fabricWarmRequests)
			},
		},
	}
}

// Warm-up request counts: enough to open every connection and settle the
// heap before timing.
const (
	coldWarmRequests   = 32
	fabricWarmRequests = 8
	// setups is how many times a run boots, generates and warms; setup_s
	// is their median and the last set-up is the one measured.
	setups = 3
)

func warmN(f *fleet, gen generator, n int) error {
	for i := 0; i < n; i++ {
		if o := send(f.client, f.front.url, gen.next()); o.err != nil {
			return o.err
		}
	}
	return nil
}

// checkFabricOracle requires each fabric template's known verdict to equal
// the single-process accesscheck.Check verdict, so fabric answers compared
// with the known verdict are compared with the single-process one.
func checkFabricOracle() error {
	r := &replayer{ctx: context.Background()}
	t := newTracer()
	for _, tmpl := range fabricTemplates() {
		_, pc, err := decodeParseFingerprint(t, 0, -1, checkRequest(tmpl, "_o").body, 1)
		if err != nil {
			return err
		}
		res, err := r.solve(t, 0, -1, pc)
		if err != nil {
			return err
		}
		if res.Satisfiable != tmpl.sat || res.Truncated {
			return fmt.Errorf("%s: single-process sat=%v truncated=%v, template says sat=%v", tmpl.name, res.Satisfiable, res.Truncated, tmpl.sat)
		}
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "cold-mix, hot-mix or fabric-wide")
	seed := flag.Uint64("seed", 1, "seed of the generated request stream")
	seconds := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the timed one")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, dur time.Duration, traced bool) error {
	nproc := runtime.NumCPU()
	spec, ok := workloads(nproc)[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}

	var f *fleet
	var gen generator
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if spec.fabric {
			f, err = bootFabric(spec.clients)
		} else {
			f, err = bootSingle(spec.clients)
		}
		if err != nil {
			return err
		}
		gen = spec.gen(seed)
		if err := spec.warm(f, gen); err != nil {
			f.close()
			return fmt.Errorf("warm-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer f.close()

	stamp := map[string]any{
		"workload": name, "seed": seed, "seconds": dur.Seconds(), "trace": traced,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit(), "clients": spec.clients, "setup_s_all": setupTimes,
	}
	var res result
	var err error
	if traced {
		res, err = measureTraced(f, spec, gen, dur, stamp)
	} else {
		res, err = measureTimed(f, spec, gen, dur, stamp)
	}
	if err != nil {
		return err
	}
	if !traced {
		res.Metrics["setup_s"] = metric{median(setupTimes), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// measureTimed is the untraced run: the end-to-end metrics.
func measureTimed(f *fleet, spec workloadSpec, gen generator, dur time.Duration, stamp map[string]any) (result, error) {
	lr := closedLoop(f, gen, spec.clients, dur, nil)
	ok := lr.attempted - lr.failed
	stamp["samples"] = lr.lat.n
	stamp["whole_run"] = map[string]any{
		"throughput_rps":     float64(ok) / lr.elapsed.Seconds(),
		"latency_p50_ms":     ms(lr.lat.quantile(0.50)),
		"samples_beyond_p99": lr.lat.n - uint64(math.Ceil(0.99*float64(lr.lat.n))),
		"window_ok":          lr.winOK,
	}
	stamp["error_rate"] = float64(lr.failed) / float64(lr.attempted)
	stamp["failures"] = lr.failures
	stamp["templates"] = lr.byTemplate()
	return result{
		Correct:   lr.failed == 0,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"throughput_rps": {lr.throughput(), "1/s"},
			"latency_p50_ms": {ms(lr.windowedQuantile(0.50)), "ms"},
			"latency_p99_ms": {ms(lr.lat.quantile(0.99)), "ms"},
			"success_rate":   {float64(ok) / float64(lr.attempted), "ratio"},
		},
	}, nil
}

// measureTraced is the per-layer run: an untraced half for the /metrics
// deltas and the untraced p50, then a traced half whose clients alternate
// a traced request with a replay of the next request through the layers.
func measureTraced(f *fleet, spec workloadSpec, gen generator, dur time.Duration, stamp map[string]any) (result, error) {
	ctx := context.Background()
	rp := newReplayer(ctx, f.client, f.workerURLs)
	t := newTracer()
	var reqs atomic.Uint64
	if z, ok := gen.(*zipfGen); ok {
		// The replay's own cache starts as warm as the server's.
		for _, r := range z.pop {
			if err := rp.replay(t, reqs.Add(1)-1, "warmup", r); err != nil {
				return result{}, err
			}
		}
	}

	before, err := f.scrape()
	if err != nil {
		return result{}, err
	}
	plain := closedLoop(f, gen, spec.clients, dur/2, nil)
	after, err := f.scrape()
	if err != nil {
		return result{}, err
	}
	traced := closedLoop(f, gen, spec.clients, dur/2, func(_ int, r request) outcome {
		id := reqs.Add(1) - 1
		root := t.begin("request", id, -1)
		o := send(f.client, f.front.url, r)
		t.end(root)
		if err := rp.replay(t, reqs.Add(1)-1, "replay", gen.next()); err != nil && o.err == nil {
			o.err = err
		}
		return o
	})

	p50 := plain.windowedQuantile(0.5)
	tracedP50 := traced.windowedQuantile(0.5)
	sum := summarize(t.spans)

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, l := range []struct{ metric, span string }{
		{"server.decode_us", "server.decode"},
		{"server.encode_us", "server.encode"},
		{"accesscheck.parse_us", "accesscheck.parse"},
		{"accesscheck.fingerprint_us", "accesscheck.fingerprint"},
		{"cachetier.lookup_us", "cachetier.lookup"},
		{"accesscheck.shard_plan_us", "accesscheck.shard_plan"},
		{"fabric.route_us", "fabric.route"},
		{"fabric.merge_us", "fabric.merge"},
	} {
		put(l.metric, sum.layerUS[l.span], "us")
	}
	for _, e := range []string{"plus", "x", "0-acc", "bounded", "automaton"} {
		put("engine."+e+".solve_ms", sum.solveMS["engine."+e+".solve"], "ms")
	}
	for _, k := range []string{"containment", "relevance", "chase"} {
		put("task."+k+".solve_ms", sum.solveMS["task."+k+".solve"], "ms")
	}
	put("engine.checks", float64(rp.solves), "count")
	put("engine.paths_per_check", ratio(float64(rp.paths), float64(rp.solves)), "paths")
	put("engine.us_per_path", ratio(us(rp.solveTime), float64(rp.paths)), "us")
	var planned float64
	for _, n := range rp.plans {
		planned += float64(n)
	}
	put("accesscheck.shards_per_check", ratio(planned, float64(len(rp.plans))), "shards")
	put("fabric.shard_rtt_ms", sum.shardRTT, "ms")
	put("fabric.shard_skew", sum.shardSkew, "ratio")

	hits := delta(before, after, `accserve_cache_tier_hits_total{tier="memory"}`)
	misses := delta(before, after, `accserve_cache_tier_misses_total{tier="memory"}`)
	put("cachetier.memory_lookups", hits+misses, "count")
	put("cachetier.memory_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("cachetier.memory_evictions", delta(before, after, `accserve_cache_tier_evictions_total{tier="memory"}`), "count")
	solves := delta(before, after, "accserve_checks_total") + delta(before, after, "accserve_shard_checks_total")
	put("server.requests", float64(plain.checks), "count")
	put("server.solves_per_request", ratio(solves, float64(plain.checks)), "ratio")
	put("fabric.shards_dispatched", delta(before, after, "accserve_fabric_shards_dispatched_total"), "count")
	put("fabric.retries", delta(before, after, "accserve_fabric_retries_total"), "count")
	put("fabric.hedges", delta(before, after, "accserve_fabric_hedges_total"), "count")

	put("trace.replayed", float64(sum.requests), "count")
	put("trace.layers_us", sum.layersUS, "us")
	put("transport.residual_us", us(p50)-sum.layersUS, "us")
	put("trace.overhead_ratio", ratio(float64(tracedP50), float64(p50)), "ratio")

	all := newLoopResult()
	all.merge(plain)
	all.merge(traced)
	stamp["samples_untraced"] = plain.lat.n
	stamp["samples_traced"] = traced.lat.n
	stamp["latency_p50_ms_untraced"] = ms(p50)
	stamp["error_rate"] = float64(all.failed) / float64(all.attempted)
	stamp["failures"] = all.failures
	stamp["spans"] = sum.spans

	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	file := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", stamp["workload"], stamp["seed"]))
	if err := t.write(file, stamp); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	stamp["trace_file"] = file
	return result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: m}, nil
}

// ratio is a/b, 0 when b is 0 (no base, nothing measured).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// commit is the VCS revision the build embedded, "unknown" outside a
// repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}
