package server

// Server-level anytime behavior: blown budgets answer with resumable
// coverage-tagged partials, identical follow-ups resume the stored
// frontier, context causes are told apart in error codes and metrics, and
// /v1/batch streams NDJSON on request. Names carry "Sharded" so CI's race
// pass picks them up.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
)

// wideRelations/wideMethods blow the phone-directory schema up to ten
// access methods, giving the canonical partition ~50 root shards — enough
// slices that a microsecond-scale budget reliably covers some but not all
// of them, which is what the anytime tests need.
var wideRelations = []string{
	"Mobile#:string,string,string,int",
	"Address:string,string,string,int",
	"Email:string,string",
	"Phone:string,string",
	"Fax:string,string",
	"Pager:string,string",
}

var wideMethods = []string{
	"AcM1:Mobile#:0",
	"AcM2:Address:0,1",
	"AcM3:Email:0",
	"AcM4:Phone:0",
	"AcM5:Email:1",
	"AcM6:Phone:1",
	"AcM7:Fax:0",
	"AcM8:Fax:1",
	"AcM9:Pager:0",
	"AcM10:Pager:1",
}

// wideUnsatFormula keeps the contradiction of unsatFormula but conjoins
// positive obligations over the extra relations, inflating the
// formula-derived witness universe — hundreds of paths across ~50 root
// shards, several milliseconds of search — so budget expiry lands mid-run
// (the engines poll the context every 64 paths) with honest partial
// coverage, instead of the whole check finishing between two polls.
const wideUnsatFormula = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])` +
	` & [exists a,b. pre Email(a,b)] & [exists a2,b2. pre Email(a2,b2)]` +
	` & [exists c,d. pre Phone(c,d)] & [exists c2,d2. pre Phone(c2,d2)]` +
	` & [exists e1,e2. pre Fax(e1,e2)] & [exists g1,g2. pre Pager(g1,g2)]`

// TestServerShardedAnytimeRepeatConverges: hammering /v1/check with the
// identical request under doubling budgets yields only honest answers —
// 504s naming budget_exhausted, or 200s that are either coverage-tagged
// resumable partials or the final exact verdict — with coverage never
// regressing, and the stored checkpoint dropped once the check settles.
func TestServerShardedAnytimeRepeatConverges(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	req.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}

	budget := 100 * time.Microsecond
	prevCov := 0.0
	sawPartial := false
	var final CheckResponse
	settled := false
	for round := 0; round < 40 && !settled; round++ {
		req.Budget = budget.String()
		budget *= 2
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "budget_exhausted" {
				t.Fatalf("round %d: 504 code %q, want budget_exhausted", round, e.Code)
			}
			if e.RetryAfter < 1 || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("round %d: 504 without a usable backoff: %+v", round, e)
			}
		case http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Coverage < prevCov {
				t.Fatalf("round %d: coverage regressed %v -> %v", round, prevCov, out.Coverage)
			}
			prevCov = out.Coverage
			if out.Resumable {
				sawPartial = true
				if !out.Truncated || out.Satisfiable {
					t.Fatalf("round %d: resumable partial malformed: %+v", round, out)
				}
				if out.Coverage <= 0 || out.Coverage >= 1 {
					t.Fatalf("round %d: partial coverage %v outside (0,1)", round, out.Coverage)
				}
				if out.RetryAfter < 1 || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("round %d: partial without a retry hint", round)
				}
				continue
			}
			final = out
			settled = true
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !settled {
		t.Fatal("check never settled under doubling budgets")
	}
	if final.Satisfiable || final.Coverage != 1 {
		t.Errorf("settled answer not exact unsat: %+v", final)
	}

	m := metrics(t, ts)
	if m["accserve_checkpoints_size"] != 0 {
		t.Errorf("settled check left %d checkpoint(s) behind", m["accserve_checkpoints_size"])
	}
	if sawPartial {
		if m["accserve_anytime_partials_total"] == 0 {
			t.Error("partial answers served but accserve_anytime_partials_total is 0")
		}
		if m["accserve_anytime_resumes_total"] == 0 {
			t.Error("a partial was resumed but accserve_anytime_resumes_total is 0")
		}
	}
	if m["accserve_budget_exhausted_total"] == 0 && !sawPartial {
		t.Skip("machine too fast to exercise budget pressure")
	}
}

// TestServerShardedShardBudgetCause: a coordinator-imposed per-shard budget
// that expires answers 504 with its own cause code, distinct from the
// request-budget cause, and increments its own counter.
func TestServerShardedShardBudgetCause(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := accesscheck.NewChecker(accesscheck.WithMaxDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	wire := &fabric.Shard{
		Version:   fabric.WireVersion,
		Relations: req.Relations,
		Methods:   req.Methods,
		Formula:   req.Formula,
		Options:   &fabric.CheckOptions{MaxDepth: 8},
		Budget:    "1ns",
		PlanSize:  len(plan),
		Shards:    []fabric.ShardRef{{Index: plan[0].Index, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "shard_budget_exhausted" {
		t.Errorf("code = %q, want shard_budget_exhausted", e.Code)
	}
	m := metrics(t, ts)
	if m["accserve_shard_budget_exhausted_total"] == 0 {
		t.Error("shard budget expiry not counted in its own metric")
	}
	if m["accserve_budget_exhausted_total"] != 0 {
		t.Error("shard budget expiry bled into the request-budget counter")
	}
}

// TestServerShardedClientDisconnectCause: a client that walks away from a
// large in-flight batch is recorded as client_disconnected, not as a budget
// expiry. Every item is fingerprint-unique (distinct response-choice caps)
// so the cache cannot absorb the work before the disconnect lands.
func TestServerShardedClientDisconnectCause(t *testing.T) {
	ts := newTestServer(t, Config{})
	var batch BatchRequest
	for i := 0; i < 50; i++ {
		r := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
		r.Options = &CheckOptions{MaxDepth: 4, MaxResponseChoices: i + 2, Engine: "bounded"}
		r.Budget = "30s"
		batch.Requests = append(batch.Requests, r)
	}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(hr); err == nil {
		resp.Body.Close()
		t.Skip("batch finished before the client disconnected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := metrics(t, ts); m["accserve_client_disconnected_total"] > 0 {
			if m["accserve_budget_exhausted_total"] != 0 {
				t.Error("disconnect bled into the budget-expiry counter")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("accserve_client_disconnected_total never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoordinatorShardedAnytimeResumeConverges: a coordinator under budget
// pressure answers coverage-tagged partials assembled from whatever the
// workers finished, checkpoints the frontier at shard-group granularity,
// and an identical follow-up redispatches only the missing slices —
// coverage grows monotonically until the merged verdict is exact, at which
// point the merged-result cache answers without touching the fabric.
func TestCoordinatorShardedAnytimeResumeConverges(t *testing.T) {
	url, _, coord := newFabric(t, 2, CoordinatorConfig{})
	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	req.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}

	budget := time.Millisecond
	prevCov := 0.0
	sawPartial := false
	var final CheckResponse
	settled := false
	for round := 0; round < 40 && !settled; round++ {
		req.Budget = budget.String()
		budget *= 2
		resp, body := postJSON(t, url+"/v1/check", req)
		switch {
		case resp.StatusCode == http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if out.Coverage < prevCov {
				t.Fatalf("round %d: coverage regressed %v -> %v", round, prevCov, out.Coverage)
			}
			prevCov = out.Coverage
			if out.Resumable {
				sawPartial = true
				if !out.Truncated || out.Satisfiable || out.Coverage <= 0 || out.Coverage >= 1 {
					t.Fatalf("round %d: malformed partial: %+v", round, out)
				}
				if out.ShardsCompleted == 0 || out.ShardsCompleted >= out.ShardsTotal {
					t.Fatalf("round %d: partial covers %d/%d shards", round, out.ShardsCompleted, out.ShardsTotal)
				}
				continue
			}
			final = out
			settled = true
		case resp.StatusCode >= 500:
			// Budget died before any group finished: honest refusal.
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !settled {
		t.Fatal("coordinator never settled under doubling budgets")
	}
	ref := referenceResult(t, req)
	if final.Satisfiable != ref.Satisfiable || final.Coverage != 1 {
		t.Errorf("settled answer diverged: sat=%v coverage=%v, want sat=%v coverage=1",
			final.Satisfiable, final.Coverage, ref.Satisfiable)
	}
	if final.Truncated {
		t.Errorf("settled full-cover answer reported truncated: %d/%d shards", final.ShardsCompleted, final.ShardsTotal)
	}
	if sawPartial {
		if n := coord.resumes.Load(); n == 0 {
			t.Error("partials served but the coordinator never counted a resume")
		}
	}

	// Settled exact verdicts answer from the merged-result cache.
	req.Budget = "10s"
	resp, body := postJSON(t, url+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settled re-request: status %d: %s", resp.StatusCode, body)
	}
	var again CheckResponse
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("settled exact verdict not served from the merged-result cache")
	}
	if again.Satisfiable != final.Satisfiable || again.Coverage != 1 {
		t.Errorf("cached answer diverged from settled: %+v vs %+v", again, final)
	}
	if hits := coord.resCache.Stats().Hits; hits == 0 {
		t.Error("merged-result cache hit not counted")
	}
}

// TestCoordinatorShardedResumedCoverCached replays the worker/coordinator
// resume sequence without a wall-clock budget: WithAnytimeChunk suspends
// the first round after one slice. The suspended group's report covers
// only that slice, and the slice is exact, so once a second round settles
// the rest the merged unsat verdict is exact and the merged-result cache
// admits it.
func TestCoordinatorShardedResumedCoverCached(t *testing.T) {
	ctx := context.Background()
	opts := &CheckOptions{MaxDepth: 4, Engine: "bounded"}
	sch, err := accesscheck.ParseSchema(wideRelations, wideMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(wideUnsatFormula)
	if err != nil {
		t.Fatal(err)
	}
	planner, err := checkerFor(opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := planner.ShardPlan(ctx, sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("plan of %d shards cannot be split", len(plan))
	}
	group := func(ids []accesscheck.ShardID) *fabric.Shard {
		sh := &fabric.Shard{Version: fabric.WireVersion, PlanSize: len(plan)}
		for _, id := range ids {
			sh.Shards = append(sh.Shards, fabric.ShardRef{Index: id.Index, Key: id.Key, WholeAccess: id.WholeAccess})
		}
		return sh
	}
	round := func(sh *fabric.Shard, extra ...accesscheck.Option) (*accesscheck.Result, *accesscheck.Checkpoint) {
		chk, err := checkerFor(opts, 1, append(extra, accesscheck.WithShards(sh.Indexes()...))...)
		if err != nil {
			t.Fatal(err)
		}
		res, cp, err := chk.CheckAnytime(ctx, sch, f, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, cp
	}

	whole := group(plan)
	res, cp := round(whole, accesscheck.WithAnytimeChunk(1))
	if !res.Resumable || !res.Truncated {
		t.Fatalf("chunked round did not suspend: %+v", res)
	}
	first := completedPart(whole, res, cp)
	if len(first.Shards) != 1 || first.Truncated {
		t.Fatalf("suspended group reported %d slices, truncated=%v; want 1 exact slice", len(first.Shards), first.Truncated)
	}

	rest := group(plan[:0:0])
	for _, id := range plan {
		if id.Index != first.Shards[0] {
			rest.Shards = append(rest.Shards, fabric.ShardRef{Index: id.Index, Key: id.Key, WholeAccess: id.WholeAccess})
		}
	}
	res, _ = round(rest)
	if res.Resumable || res.Truncated {
		t.Fatalf("settling round: %+v", res)
	}
	second := shardResult(rest, res, false)

	merged, err := fabric.MergeCover([]fabric.ShardResult{*first, *second}, len(plan))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Satisfiable || merged.Truncated || merged.ShardsCompleted != len(plan) {
		t.Fatalf("full cover merged to sat=%v truncated=%v %d/%d shards", merged.Satisfiable, merged.Truncated, merged.ShardsCompleted, merged.ShardsTotal)
	}
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cc := newCoordCheckpoint(len(plan))
	cc.absorb(*first)
	cc.absorb(*second)
	if out := coord.finishMerge("fp", cc, merged); out.Truncated || out.Coverage != 1 {
		t.Errorf("settled answer truncated=%v coverage=%v", out.Truncated, out.Coverage)
	}
	if _, ok := coord.resCache.Get("fp"); !ok {
		t.Error("settled fabric verdict not admitted to the merged-result cache")
	}
}

// TestServerShardedBatchNDJSONStreaming: Accept: application/x-ndjson turns
// /v1/batch into one line per item in completion order, index-correlated,
// covering every item exactly once — and the default buffered shape is
// untouched without the header.
func TestServerShardedBatchNDJSONStreaming(t *testing.T) {
	ts := newTestServer(t, Config{})
	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		{Relations: testRelations, Formula: "[[["}, // parse error
	}}
	b, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	seen := map[int]BatchStreamItem{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line BatchStreamItem
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := seen[line.Index]; dup {
			t.Fatalf("index %d streamed twice", line.Index)
		}
		seen[line.Index] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("streamed %d lines, want 3", len(seen))
	}
	if r := seen[0].Result; r == nil || !r.Satisfiable {
		t.Errorf("item 0 (sat): %+v", seen[0])
	}
	if r := seen[1].Result; r == nil || r.Satisfiable {
		t.Errorf("item 1 (unsat): %+v", seen[1])
	}
	if seen[2].Error == "" {
		t.Errorf("item 2 (parse error) streamed without an error: %+v", seen[2])
	}

	// Without the Accept header the buffered object shape is unchanged.
	respB, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("buffered batch: status %d: %s", respB.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("buffered batch did not answer a BatchResponse object: %v", err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("buffered batch answered %d results, want 3", len(out.Results))
	}
}

// forwardProbe wraps a worker and records, for each request it answers,
// when the request arrived, when the answer was complete, and whether the
// answer was a resumable partial.
type forwardProbe struct {
	inner  http.Handler
	mu     sync.Mutex
	rounds []probeRound
}

type probeRound struct {
	arrived, finished time.Time
	partial           bool
}

func (p *forwardProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	rec := httptest.NewRecorder()
	p.inner.ServeHTTP(rec, r)
	var out CheckResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	p.mu.Lock()
	p.rounds = append(p.rounds, probeRound{arrived: arrived, finished: time.Now(), partial: out.Resumable})
	p.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// partialWithin reports whether a request that arrived after sent was
// answered with a partial complete by the given time.
func (p *forwardProbe) partialWithin(sent, by time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, pr := range p.rounds {
		if pr.partial && pr.arrived.After(sent) && !pr.finished.After(by) {
			return true
		}
	}
	return false
}

// TestCoordinatorShardedForwardAnytimePartial: on a one-worker fabric the
// coordinator forwards each check whole, and under doubling budgets the
// worker's resumable partials must reach the client, as they do from a
// standalone server. The forwarded budget leaves the coordinator a merge
// window of a fifth of its budget, so a worker that stops on time answers
// before the coordinator's own deadline closes the connection. A round
// whose worker partial was complete a millisecond before the client's
// deadline must deliver it. The test skips when no round both ended in a
// partial and left that much time: the host's stop latency then outran the
// merge window at every budget where the check suspends.
func TestCoordinatorShardedForwardAnytimePartial(t *testing.T) {
	probe := &forwardProbe{inner: New(Config{})}
	worker := httptest.NewServer(probe)
	defer worker.Close()
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()
	req := CheckRequest{Relations: wideRelations, Methods: wideMethods, Formula: wideUnsatFormula}
	req.Options = &CheckOptions{MaxDepth: 4, Engine: "bounded"}

	budget := 200 * time.Microsecond
	delivered, onTime := 0, 0
	settled := false
	for round := 0; round < 40 && !settled; round++ {
		req.Budget = budget.String()
		sent := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/check", req)
		inTime := probe.partialWithin(sent, sent.Add(budget-time.Millisecond))
		budget *= 2
		if inTime {
			onTime++
		}
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			var e errorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "budget_exhausted" {
				t.Fatalf("round %d: 504 code %q, want budget_exhausted", round, e.Code)
			}
			if inTime {
				t.Errorf("round %d: the worker's partial was ready a millisecond before the deadline, but the client got a 504", round)
			}
		case http.StatusOK:
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Resumable {
				if out.Satisfiable || out.Coverage != 1 {
					t.Fatalf("round %d: settled answer not exact unsat: %+v", round, out)
				}
				settled = true
				break
			}
			delivered++
			if !out.Truncated || out.Satisfiable || out.Coverage <= 0 || out.Coverage >= 1 {
				t.Fatalf("round %d: malformed partial: %+v", round, out)
			}
			if out.RetryAfter < 1 || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("round %d: partial without a retry hint", round)
			}
		default:
			t.Fatalf("round %d: status %d: %s", round, resp.StatusCode, body)
		}
	}
	if !settled {
		t.Fatal("check never settled under doubling budgets")
	}
	if delivered == 0 && onTime == 0 {
		t.Skip("no worker partial was ready a millisecond before its round's deadline")
	}
}
