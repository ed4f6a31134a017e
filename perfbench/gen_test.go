package main

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// stream draws the first n requests of a workload's generator.
func stream(gen generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = gen.next()
	}
	return out
}

func TestStreamIsByteIdenticalPerSeed(t *testing.T) {
	for name, spec := range workloads(2) {
		a, b := stream(spec.gen(7), 300), stream(spec.gen(7), 300)
		differs := false
		other := stream(spec.gen(8), 300)
		for i := range a {
			if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two streams of seed 7:\n%s\n%s", name, i, a[i].body, b[i].body)
			}
			if !bytes.Equal(a[i].body, other[i].body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 produced the same stream", name)
		}
	}
}

func TestColdStreamIsUniqueApartFromHerdPairs(t *testing.T) {
	seen := map[string]int{}
	reqs := stream(newColdGen(3), 2000)
	pairs := 0
	for i, r := range reqs {
		if j, ok := seen[string(r.body)]; ok {
			if j != i-1 {
				t.Fatalf("request %d repeats request %d, not its predecessor", i, j)
			}
			pairs++
		}
		seen[string(r.body)] = i
	}
	if pairs < 2000/8/2 || pairs > 2000/8*2 {
		t.Errorf("%d herd pairs in 2000 requests, want about 1 in 8", pairs)
	}
}

// TestTemplatesKeepTheirVerdicts solves every check template, as written
// and renamed, in process and requires its known verdict and engine.
func TestTemplatesKeepTheirVerdicts(t *testing.T) {
	var all []checkTemplate
	all = append(all, coldTemplates()...)
	all = append(all, hotTemplates()...)
	all = append(all, fabricTemplates()...)
	rp := newReplayer(context.Background(), nil, nil)
	tr := newTracer()
	for _, tmpl := range all {
		for _, suffix := range []string{"", "_x9"} {
			_, pc, err := decodeParseFingerprint(tr, 0, -1, checkRequest(tmpl, suffix).body, 1)
			if err != nil {
				t.Fatalf("%s%s: %v", tmpl.name, suffix, err)
			}
			res, err := rp.solve(tr, 0, -1, pc)
			if err != nil {
				t.Fatalf("%s%s: %v", tmpl.name, suffix, err)
			}
			if res.Satisfiable != tmpl.sat || res.Truncated || res.Engine.String() != tmpl.engine {
				t.Errorf("%s%s: sat=%v truncated=%v engine=%s, want sat=%v engine=%s",
					tmpl.name, suffix, res.Satisfiable, res.Truncated, res.Engine, tmpl.sat, tmpl.engine)
			}
		}
	}
}

// TestScenariosKeepTheirVerdicts replays every renamed task scenario
// through the layer calls and checks the encoded answer against its
// oracle. The two long-term-relevance probes (about a second each) are
// left to the hot-mix warm-up, which checks them on every run.
func TestScenariosKeepTheirVerdicts(t *testing.T) {
	rp := newReplayer(context.Background(), nil, nil)
	tr := newTracer()
	for _, sc := range taskScenarios() {
		if sc.want.probe {
			continue
		}
		if err := rp.replay(tr, 0, "replay", taskRequest(sc, "_x9")); err != nil {
			t.Error(err)
		}
	}
}

func TestRenameLeavesConstantsAndVariables(t *testing.T) {
	r := newRenamer([]string{"Mobile#", "AcM1", "R"}, "_s")
	for src, want := range map[string]string{
		`Mobile#("Mobile#","R",3)`:                         `Mobile#_s("Mobile#","R",3)`,
		`exists n. bind AcM1(n) & pre Mobile#(n,p,s,ph)`:   `exists n. bind AcM1_s(n) & pre Mobile#_s(n,p,s,ph)`,
		`R[0,1]<=S[0,1]`:                                   `R_s[0,1]<=S[0,1]`,
		`AcM1:Mobile#:0`:                                   `AcM1_s:Mobile#_s:0`,
		`exists x. post R0(x) & X [exists Rx. post R(Rx)]`: `exists x. post R0(x) & X [exists Rx. post R_s(Rx)]`,
	} {
		if got := r.str(src); got != want {
			t.Errorf("rename %q = %q, want %q", src, got, want)
		}
	}
}

func TestSummarizeSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []spanRec{
		{Name: "replay", ID: 0, Parent: -1, Start: 0, End: ms(10)},
		{Name: "server.decode", ID: 1, Parent: 0, Start: ms(0), End: ms(1)},
		// Two parallel shard groups: 2..6 and 3..8 cover 6 ms together.
		{Name: "fabric.shard", ID: 2, Parent: 0, Start: ms(2), End: ms(6)},
		{Name: "fabric.shard", ID: 3, Parent: 0, Start: ms(3), End: ms(8)},
		{Name: "engine.x.solve", ID: 4, Parent: 3, Start: ms(4), End: ms(5)},
	}
	s := summarize(spans)
	if s.layersUS != 7000 {
		t.Errorf("layers = %v us, want 7000 (decode 1 ms + shard groups' union 6 ms)", s.layersUS)
	}
	if s.layerUS["fabric.shard"] != 8000 {
		t.Errorf("fabric.shard self = %v us, want 8000 (4 ms + 5 ms - 1 ms solve)", s.layerUS["fabric.shard"])
	}
	if s.shardSkew != 5.0/4.5 {
		t.Errorf("skew = %v, want slowest 5 ms over median 4.5 ms", s.shardSkew)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := new(histogram)
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}} {
		got := h.quantile(c.q)
		if diff := got - c.want; diff < -c.want/128 || diff > c.want/128 {
			t.Errorf("quantile(%v) = %v, want %v within 1/128", c.q, got, c.want)
		}
	}
}
