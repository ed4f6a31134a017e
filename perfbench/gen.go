package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"

	"accltl/accesscheck/server"
)

// request is one generated HTTP request: the only thing the servers see is
// path and body.
type request struct {
	path     string
	body     []byte
	template string
	want     oracle
}

// generator yields a workload's request stream. next is safe for
// concurrent use; the sequence it hands out depends only on the seed.
type generator interface {
	next() request
}

// newRand seeds the workload's stream.
func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", v, err))
	}
	return b
}

func checkRequest(t checkTemplate, suffix string) request {
	return request{
		path:     "/v1/check",
		body:     mustJSON(renameCheck(t, suffix)),
		template: t.name,
		want:     oracle{kind: "check", verdict: t.sat, engine: t.engine},
	}
}

func taskRequest(sc taskScenario, suffix string) request {
	return request{
		path:     "/v1/" + sc.kind,
		body:     mustJSON(renameTask(sc, suffix)),
		template: sc.name,
		want:     sc.want,
	}
}

// item is one weighted entry of a mix: a check template or a task
// scenario.
type item struct {
	check  *checkTemplate
	task   *taskScenario
	weight int
}

func (it item) render(suffix string) request {
	if it.check != nil {
		return checkRequest(*it.check, suffix)
	}
	return taskRequest(*it.task, suffix)
}

// uniqueGen deals items from a seeded deck holding each item weight times,
// reshuffled whenever it runs out, so every run sends the same mix in a
// different order; each body is renamed with a fresh suffix, so every body
// is a distinct cache key. dupEvery > 0 queues a seeded 1-in-dupEvery of
// the bodies twice in a row.
type uniqueGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	deck     []item
	pos      int
	prefix   string
	n        uint64
	dupEvery int
	pending  *request
}

func newUniqueGen(seed uint64, prefix string, items []item, dupEvery int) *uniqueGen {
	g := &uniqueGen{rng: newRand(seed), prefix: prefix, dupEvery: dupEvery}
	for _, it := range items {
		for i := 0; i < it.weight; i++ {
			g.deck = append(g.deck, it)
		}
	}
	g.pos = len(g.deck)
	return g
}

func (g *uniqueGen) next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending != nil {
		r := *g.pending
		g.pending = nil
		return r
	}
	if g.pos == len(g.deck) {
		g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		g.pos = 0
	}
	it := g.deck[g.pos]
	g.pos++
	g.n++
	r := it.render("_" + g.prefix + strconv.FormatUint(g.n, 36))
	if g.dupEvery > 0 && g.rng.IntN(g.dupEvery) == 0 {
		g.pending = &r
	}
	return r
}

// coldItems weights the checks that take 4 ms or more to solve 3 and
// every other check and task scenario 1, which puts the median request
// inside the chain5 cluster rather than on the gap between the
// sub-millisecond requests and the chains. The long-term-relevance probes
// are left out: at 0.6 to 1 s a solve, fifty times the next most expensive
// request, any share of them would turn cold-mix into a count of probes.
// hot-mix still serves them, from the cache.
func coldItems() []item {
	var items []item
	for _, t := range coldTemplates() {
		w := 1
		if t.heavy {
			w = 3
		}
		items = append(items, item{check: &t, weight: w})
	}
	for _, sc := range taskScenarios() {
		if sc.want.probe {
			continue
		}
		items = append(items, item{task: &sc, weight: 1})
	}
	return items
}

func fabricItems() []item {
	var items []item
	for i, t := range fabricTemplates() {
		items = append(items, item{check: &t, weight: fabricWeights[i]})
	}
	return items
}

// newColdGen is cold-mix's shared queue: unique renamed checks and tasks,
// with the herd duplicates.
func newColdGen(seed uint64) *uniqueGen { return newUniqueGen(seed, "c", coldItems(), 8) }

// newFabricGen is fabric-wide's stream of unique renamed wide checks.
func newFabricGen(seed uint64) *uniqueGen { return newUniqueGen(seed, "f", fabricItems(), 0) }

// hotWorkingSet is the number of distinct cheap checks hot-mix cycles
// through; with the task scenarios it fits accserve's 1024-entry cache.
const hotWorkingSet = 256

// zipfGen draws Zipf-skewed picks over a fixed population of bodies.
type zipfGen struct {
	mu   sync.Mutex
	zipf *rand.Zipf
	pop  []request
}

// newHotGen is hot-mix's stream: hotWorkingSet renamed cheap checks plus
// the task scenarios, drawn Zipf(1.1) by rank. The layout of ranks is fixed
// (checks cycle through hotTemplates, tasks sit at every taskStride-th rank
// from taskStride on), and the seed permutes only which renamed copy or
// which task takes each rank, so every seed sends the same per-template mix.
func newHotGen(seed uint64) *zipfGen {
	rng := newRand(seed)
	tmpl := hotTemplates()
	scenarios := taskScenarios()
	copies := rng.Perm(hotWorkingSet)
	tasks := rng.Perm(len(scenarios))
	pop := make([]request, 0, hotWorkingSet+len(scenarios))
	nc, nt := 0, 0
	for rank := 0; nc < hotWorkingSet || nt < len(scenarios); rank++ {
		if nt < len(scenarios) && rank > 0 && rank%taskStride == 0 || nc == hotWorkingSet {
			pop = append(pop, taskRequest(scenarios[tasks[nt]], "_t"))
			nt++
			continue
		}
		pop = append(pop, checkRequest(tmpl[nc%len(tmpl)], "_h"+strconv.Itoa(copies[nc])))
		nc++
	}
	return &zipfGen{zipf: rand.NewZipf(rng, 1.1, 1, uint64(len(pop)-1)), pop: pop}
}

// taskStride spaces the task scenarios out over the hot-mix ranks.
const taskStride = 16

func (g *zipfGen) next() request {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pop[g.zipf.Uint64()]
}

// oracle is a request's known answer. Only verdict fields are compared:
// witnesses name the renamed identifiers.
type oracle struct {
	kind    string // "check", "containment", "relevance" or "chase"
	verdict bool
	engine  string // check: the engine that must run
	exact   bool   // containment: whether the verdict is unconditional
	probe   bool   // relevance: probe mode reads Relevant, else Answer
}

// verify decodes a 200 body and compares it with the oracle. A truncated,
// resumable or partial-coverage answer is a failure: every request of the
// benchmark has an exact answer within the default budget.
func (o oracle) verify(body []byte) error {
	switch o.kind {
	case "check":
		var r server.CheckResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		switch {
		case r.Truncated || r.Resumable || r.ShardsCompleted != r.ShardsTotal:
			return fmt.Errorf("partial answer (truncated=%v resumable=%v shards %d/%d)", r.Truncated, r.Resumable, r.ShardsCompleted, r.ShardsTotal)
		case r.Satisfiable != o.verdict:
			return fmt.Errorf("satisfiable=%v, want %v", r.Satisfiable, o.verdict)
		case r.Engine != o.engine:
			return fmt.Errorf("engine %q, want %q", r.Engine, o.engine)
		}
	case "containment":
		var r server.ContainmentResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Contained != o.verdict || r.Exact != o.exact {
			return fmt.Errorf("contained=%v exact=%v, want %v/%v", r.Contained, r.Exact, o.verdict, o.exact)
		}
	case "relevance":
		var r server.RelevanceResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		got := r.Answer
		if o.probe {
			got = r.Relevant
		}
		if r.Truncated || got != o.verdict {
			return fmt.Errorf("verdict=%v truncated=%v, want %v", got, r.Truncated, o.verdict)
		}
	case "chase":
		var r server.ChaseResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Truncated || !r.Terminated || r.Implied != o.verdict {
			return fmt.Errorf("implied=%v terminated=%v truncated=%v, want %v", r.Implied, r.Terminated, r.Truncated, o.verdict)
		}
	default:
		return fmt.Errorf("unknown oracle kind %q", o.kind)
	}
	return nil
}
