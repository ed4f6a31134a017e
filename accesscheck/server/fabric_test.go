package server

// End-to-end tests for the distributed check fabric: a coordinator over two
// real in-process workers (httptest) must answer bit-identically to a
// single-process Checker.Check across the golden option grid, keep
// answering when a worker dies mid-batch, and expose per-worker health.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
	"accltl/internal/workload"
)

// goldenGrid is the option grid fanned-out checks are compared against
// single-process runs on. MaxPaths cells are deliberately absent: a path
// cap lands at a different point in each subset's walk, so capped counts
// are not comparable across partitions (the lts tests pin that contract).
var goldenGrid = []*CheckOptions{
	nil,
	{Engine: "bounded"},
	{Grounded: true},
	{MaxDepth: 4},
	{MaxResponseChoices: 2},
	{Grounded: true, MaxDepth: 5},
	{AllExact: true},
}

func gridName(o *CheckOptions) string {
	if o == nil {
		return "default"
	}
	b, _ := json.Marshal(o)
	return string(b)
}

// newFabric starts n worker servers and a coordinator over them, returning
// the coordinator's URL, the workers' test servers, and the coordinator
// itself (for registry and metrics access).
func newFabric(t *testing.T, n int, ccfg CoordinatorConfig) (string, []*httptest.Server, *Coordinator) {
	t.Helper()
	workers := make([]*httptest.Server, n)
	for i := range workers {
		workers[i] = httptest.NewServer(New(Config{}))
		t.Cleanup(workers[i].Close)
		ccfg.Workers = append(ccfg.Workers, workers[i].URL)
	}
	coord, err := NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts.URL, workers, coord
}

// referenceResult solves the request single-process, through the same
// option mapping the workers use.
func referenceResult(t *testing.T, req CheckRequest) *accesscheck.Result {
	t.Helper()
	chk, err := checkerFor(req.Options, 1)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chk.Check(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertEquivalent(t *testing.T, label string, got CheckResponse, ref *accesscheck.Result) {
	t.Helper()
	if got.Satisfiable != ref.Satisfiable {
		t.Errorf("%s: satisfiable = %v, want %v", label, got.Satisfiable, ref.Satisfiable)
	}
	if got.Engine != ref.Engine.String() {
		t.Errorf("%s: engine = %q, want %q", label, got.Engine, ref.Engine)
	}
	if got.Fragment != ref.Fragment.String() {
		t.Errorf("%s: fragment = %q, want %q", label, got.Fragment, ref.Fragment)
	}
	if got.InFragment != ref.InFragment || got.Decidable != ref.Decidable {
		t.Errorf("%s: in_fragment/decidable = %v/%v, want %v/%v",
			label, got.InFragment, got.Decidable, ref.InFragment, ref.Decidable)
	}
	if got.Depth != ref.Depth {
		t.Errorf("%s: depth = %d, want %d", label, got.Depth, ref.Depth)
	}
	if ref.Satisfiable {
		if got.Witness == "" {
			t.Errorf("%s: satisfiable without a witness", label)
		}
		return
	}
	// Unsat verdicts come from exhausting the whole partition, so the
	// merged report counts must reproduce the serial search exactly.
	if got.Truncated != ref.Truncated || got.ResponsesCapped != ref.ResponsesCapped {
		t.Errorf("%s: truncated/responses_capped = %v/%v, want %v/%v",
			label, got.Truncated, got.ResponsesCapped, ref.Truncated, ref.ResponsesCapped)
	}
	if got.PathsExplored != ref.PathsExplored {
		t.Errorf("%s: paths_explored = %d, want %d", label, got.PathsExplored, ref.PathsExplored)
	}
}

// TestCoordinatorEquivalenceGrid: coordinator + two workers answer every
// golden grid cell bit-identically to a single-process check.
func TestCoordinatorEquivalenceGrid(t *testing.T) {
	url, _, coord := newFabric(t, 2, CoordinatorConfig{})
	for _, opts := range goldenGrid {
		for _, formula := range []string{satFormula, unsatFormula} {
			req := checkReq(formula)
			req.Options = opts
			label := fmt.Sprintf("%s/%s", gridName(opts), formula[:12])
			ref := referenceResult(t, req)
			resp, body := postJSON(t, url+"/v1/check", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", label, resp.StatusCode, body)
				continue
			}
			var out CheckResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, label, out, ref)
		}
	}
	// The grid must actually exercise the fan-out path, not fall back to
	// forwarding every cell.
	if got := coord.fanouts.Load(); got == 0 {
		t.Error("no grid cell took the shard fan-out path")
	}
}

// TestCoordinatorBatchEquivalence: /v1/batch through the fabric lines up
// item-for-item with single-process results, including per-item errors.
func TestCoordinatorBatchEquivalence(t *testing.T) {
	url, _, _ := newFabric(t, 2, CoordinatorConfig{})
	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		{Relations: testRelations, Formula: "[[["},
		checkReq(satFormula),
	}}
	resp, body := postJSON(t, url+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(out.Results))
	}
	for _, i := range []int{0, 3} {
		if r := out.Results[i]; r.Result == nil || !r.Result.Satisfiable {
			t.Errorf("item %d: %+v, want satisfiable", i, r)
		}
	}
	if r := out.Results[1]; r.Result == nil || r.Result.Satisfiable {
		t.Errorf("item 1: %+v, want unsatisfiable", r)
	}
	if r := out.Results[2]; r.Error == "" {
		t.Error("item 2: parse failure not reported")
	}
	ref := referenceResult(t, checkReq(unsatFormula))
	assertEquivalent(t, "batch item 1", *out.Results[1].Result, ref)
}

// TestCoordinatorCacheAffinity: repeating a check routes each slice back
// to the worker that already holds its shard-keyed cache entry, so the
// second merged answer is fully cached.
func TestCoordinatorCacheAffinity(t *testing.T) {
	url, _, _ := newFabric(t, 2, CoordinatorConfig{})
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, url+"/v1/check", checkReq(unsatFormula))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out CheckResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; out.Cached != want {
			t.Errorf("request %d: cached = %v, want %v", i, out.Cached, want)
		}
	}
}

// dyingWorker wraps a real worker and kills every connection once tripped,
// like a process dying mid-batch: requests already accepted are aborted
// without a response, later ones fail the same way.
type dyingWorker struct {
	inner http.Handler
	dead  atomic.Bool
}

func (d *dyingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	d.inner.ServeHTTP(w, r)
}

// TestCoordinatorSurvivesWorkerDeathMidBatch: with one of two workers dead,
// every batch item must still answer correctly via retry/failover, and the
// coordinator must report the fabric as degraded.
func TestCoordinatorSurvivesWorkerDeathMidBatch(t *testing.T) {
	alive := httptest.NewServer(New(Config{}))
	defer alive.Close()
	dying := &dyingWorker{inner: New(Config{})}
	dw := httptest.NewServer(dying)
	defer dw.Close()

	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:    []string{alive.URL, dw.URL},
		Retries:    1,
		Backoff:    5 * time.Millisecond,
		HedgeAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	// Warm run with both workers up: the fan-out path spreads slices over
	// both, so the later batch genuinely loses in-flight capacity.
	resp, body := postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm check: status %d: %s", resp.StatusCode, body)
	}

	dying.dead.Store(true)

	batch := BatchRequest{Requests: []CheckRequest{
		checkReq(satFormula),
		checkReq(unsatFormula),
		checkReq(satFormula),
		checkReq(unsatFormula),
	}}
	resp, body = postJSON(t, ts.URL+"/v1/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with dead worker: status %d: %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	wantSat := []bool{true, false, true, false}
	for i, r := range out.Results {
		if r.Result == nil {
			t.Errorf("item %d failed despite a live worker: %s", i, r.Error)
			continue
		}
		if r.Result.Satisfiable != wantSat[i] {
			t.Errorf("item %d: satisfiable = %v, want %v", i, r.Result.Satisfiable, wantSat[i])
		}
	}

	// The dead worker must show up in per-worker health.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health struct {
		Status  string                `json:"status"`
		Workers []fabric.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Errorf("healthz = %d %q, want 200 \"degraded\"", hresp.StatusCode, health.Status)
	}
	downSeen := false
	for _, ws := range health.Workers {
		if ws.URL == dw.URL && !ws.Healthy {
			downSeen = true
		}
		if ws.URL == alive.URL && !ws.Healthy {
			t.Error("live worker reported unhealthy")
		}
	}
	if !downSeen {
		t.Error("dead worker not reported unhealthy")
	}
}

// TestCoordinatorMetrics: the coordinator exposes fabric dispatch counters
// and per-worker health gauges.
func TestCoordinatorMetrics(t *testing.T) {
	url, workers, _ := newFabric(t, 2, CoordinatorConfig{})
	postJSON(t, url+"/v1/check", checkReq(satFormula))
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"accserve_coordinator_checks_total",
		"accserve_fabric_shards_dispatched_total",
		"accserve_fabric_retries_total",
		"accserve_fabric_hedges_total",
		fmt.Sprintf("accserve_worker_up{worker=%q} 1", workers[0].URL),
		fmt.Sprintf("accserve_worker_up{worker=%q} 1", workers[1].URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestWorkerShardEndpoint: POST /v1/shard on a plain server runs exactly
// the assigned slices, and per-slice results merge back to the
// single-process verdict.
func TestWorkerShardEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	ref := referenceResult(t, req)

	sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(req.Formula)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) < 2 {
		t.Fatalf("want a multi-shard plan, got %d", len(plan))
	}

	wireFor := func(refs []fabric.ShardRef) *fabric.Shard {
		return &fabric.Shard{
			Version:   fabric.WireVersion,
			Relations: req.Relations,
			Methods:   req.Methods,
			Formula:   req.Formula,
			PlanSize:  len(plan),
			Shards:    refs,
		}
	}

	// One request per slice; merging all partials reproduces the serial run.
	parts := make([]fabric.ShardResult, 0, len(plan))
	for _, sh := range plan {
		wire := wireFor([]fabric.ShardRef{{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess}})
		resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", sh.Index, resp.StatusCode, body)
		}
		var part fabric.ShardResult
		if err := json.Unmarshal(body, &part); err != nil {
			t.Fatal(err)
		}
		if len(part.Shards) != 1 || part.Shards[0] != sh.Index {
			t.Fatalf("shard %d: result covers %v", sh.Index, part.Shards)
		}
		parts = append(parts, part)
	}
	merged, err := fabric.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Satisfiable != ref.Satisfiable || merged.PathsExplored != ref.PathsExplored {
		t.Errorf("merged verdict/paths = %v/%d, want %v/%d",
			merged.Satisfiable, merged.PathsExplored, ref.Satisfiable, ref.PathsExplored)
	}
	if merged.Truncated != ref.Truncated {
		t.Errorf("merged truncated = %v, want %v", merged.Truncated, ref.Truncated)
	}

	// A stale or tampered plan view must be rejected with 409, visibly in
	// metrics, never silently searched.
	bad := wireFor([]fabric.ShardRef{{Index: 0, Key: "not-the-canonical-key"}})
	resp, body := postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("tampered key: status %d, want 409: %s", resp.StatusCode, body)
	}
	bad = wireFor([]fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}})
	bad.PlanSize = len(plan) + 3
	resp, body = postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("wrong plan size: status %d, want 409: %s", resp.StatusCode, body)
	}
	m := metrics(t, ts)
	if m["accserve_shard_plan_mismatches_total"] != 2 {
		t.Errorf("plan mismatches = %d, want 2", m["accserve_shard_plan_mismatches_total"])
	}
	if m["accserve_shard_checks_total"] == 0 {
		t.Error("shard solves not counted")
	}

	// Foreign wire versions are a 400, not a guess.
	bad = wireFor([]fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}})
	bad.Version = 99
	resp, body = postJSON(t, ts.URL+"/v1/shard", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("foreign version: status %d, want 400: %s", resp.StatusCode, body)
	}
}

// TestWorkerShardCaching: partial results are cached under the shard-keyed
// fingerprint; a repeat of the same slice is a hit, and the slice entry
// never answers the full check.
func TestWorkerShardCaching(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	sch, _ := accesscheck.ParseSchema(req.Relations, req.Methods)
	f, _ := accesscheck.ParseFormula(req.Formula)
	chk, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := chk.ShardPlan(context.Background(), sch, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Skip("empty plan")
	}
	wire := &fabric.Shard{
		Version:   fabric.WireVersion,
		Relations: req.Relations,
		Methods:   req.Methods,
		Formula:   req.Formula,
		PlanSize:  len(plan),
		Shards:    []fabric.ShardRef{{Index: 0, Key: plan[0].Key, WholeAccess: plan[0].WholeAccess}},
	}
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var part fabric.ShardResult
		if err := json.Unmarshal(body, &part); err != nil {
			t.Fatal(err)
		}
		if want := i > 0; part.Cached != want {
			t.Errorf("request %d: cached = %v, want %v", i, part.Cached, want)
		}
	}
	// The full check must not be served from the slice's cache entry.
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full check: status %d: %s", resp.StatusCode, body)
	}
	var out CheckResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Error("full check served from a partial result's cache entry")
	}
}

// TestDeadlineCarriesRetryAfter: a 504 must name a machine-readable backoff
// in both the Retry-After header and the structured JSON body.
func TestDeadlineCarriesRetryAfter(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := checkReq(unsatFormula)
	req.Options = &CheckOptions{MaxDepth: 8, Engine: "bounded"}
	req.Budget = "1ns"
	resp, body := postJSON(t, ts.URL+"/v1/check", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (1ns budget rounds up to 1s)", got)
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "budget_exhausted" {
		t.Errorf("error code = %q, want \"budget_exhausted\" (own-budget expiry names its cause)", e.Code)
	}
	if e.RetryAfter != 1 {
		t.Errorf("retry_after_seconds = %d, want 1", e.RetryAfter)
	}
	if e.Error == "" {
		t.Error("structured error body missing the message")
	}
}

// TestCacheEvictionsExposed: overflowing a 1-entry cache with two distinct
// exact results increments accserve_cache_evictions_total.
func TestCacheEvictionsExposed(t *testing.T) {
	ts := newTestServer(t, Config{CacheSize: 1})
	postJSON(t, ts.URL+"/v1/check", checkReq(satFormula))
	postJSON(t, ts.URL+"/v1/check", checkReq(unsatFormula))
	m := metrics(t, ts)
	if m["accserve_cache_evictions_total"] == 0 {
		t.Error("eviction not counted after overflowing a 1-entry cache")
	}
}

// stripVolatile drops the fields two correct answers may legitimately
// disagree on — whether a cache served them and how long they took — from a
// decoded JSON value, at any depth.
func stripVolatile(v any) any {
	switch x := v.(type) {
	case map[string]any:
		delete(x, "cached")
		delete(x, "elapsed_ms")
		for k, e := range x {
			x[k] = stripVolatile(e)
		}
	case []any:
		for i, e := range x {
			x[i] = stripVolatile(e)
		}
	}
	return v
}

// sameAnswer decodes two response bodies and reports whether they are equal
// once cache and timing fields are ignored.
func sameAnswer(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatalf("bad body %s: %v", a, err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatalf("bad body %s: %v", b, err)
	}
	return reflect.DeepEqual(stripVolatile(va), stripVolatile(vb))
}

// TestCoordinatorTaskRoutesMatchStandalone: every task scenario answers the
// same through a coordinator over two workers as through a standalone
// server, as a single route and as a mixed /v1/batch item — including the
// per-item errors of a missing payload and an unknown kind.
func TestCoordinatorTaskRoutesMatchStandalone(t *testing.T) {
	standalone := newTestServer(t, Config{})
	coordURL, _, _ := newFabric(t, 2, CoordinatorConfig{})

	type scenario struct {
		name, route string
		item        TaskRequest
	}
	var scenarios []scenario
	for _, sc := range workload.ContainmentScenarios() {
		req := containmentReq(sc)
		scenarios = append(scenarios, scenario{"containment/" + sc.Name, "/v1/containment",
			TaskRequest{Task: "containment", Containment: &req}})
	}
	for _, sc := range workload.RelevanceScenarios() {
		req := relevanceReq(sc)
		scenarios = append(scenarios, scenario{"relevance/" + sc.Name, "/v1/relevance",
			TaskRequest{Task: "relevance", Relevance: &req}})
	}
	for _, c := range []struct {
		name string
		req  ChaseRequest
	}{
		{"implied", ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1", "R:1->2"}, Sigma: "R:0->2"}},
		{"not-implied", ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1"}, Sigma: "R:0->2"}},
		{"with-id", ChaseRequest{Arities: []string{"R:2", "S:2"}, FDs: []string{"S:0->1"}, IDs: []string{"R[0,1]<=S[0,1]"}, Sigma: "R:0->1"}},
	} {
		req := c.req
		scenarios = append(scenarios, scenario{"chase/" + c.name, "/v1/chase",
			TaskRequest{Task: "chase", Chase: &req}})
	}
	badContainment := ContainmentRequest{Mode: "ucq", Q1: "[[[", Q2: "[[["}
	scenarios = append(scenarios, scenario{"containment/parse-failure", "/v1/containment",
		TaskRequest{Task: "containment", Containment: &badContainment}})

	for _, sc := range scenarios {
		var payload any
		switch {
		case sc.item.Containment != nil:
			payload = sc.item.Containment
		case sc.item.Relevance != nil:
			payload = sc.item.Relevance
		default:
			payload = sc.item.Chase
		}
		want, wantBody := postJSON(t, standalone.URL+sc.route, payload)
		got, gotBody := postJSON(t, coordURL+sc.route, payload)
		if wantOK := sc.item.Containment != &badContainment; (want.StatusCode == http.StatusOK) != wantOK {
			t.Errorf("%s: standalone status %d: %s", sc.name, want.StatusCode, wantBody)
		}
		if got.StatusCode != want.StatusCode || !sameAnswer(t, gotBody, wantBody) {
			t.Errorf("%s: coordinator answered %d %s, standalone %d %s",
				sc.name, got.StatusCode, gotBody, want.StatusCode, wantBody)
		}
	}

	batch := BatchRequest{}
	for _, sc := range scenarios {
		batch.Items = append(batch.Items, sc.item)
	}
	batch.Items = append(batch.Items, TaskRequest{Task: "chase"}, TaskRequest{Task: "conjuring"})
	want, wantBody := postJSON(t, standalone.URL+"/v1/batch", batch)
	got, gotBody := postJSON(t, coordURL+"/v1/batch", batch)
	if want.StatusCode != http.StatusOK || got.StatusCode != http.StatusOK {
		t.Fatalf("batch status: standalone %d, coordinator %d: %s", want.StatusCode, got.StatusCode, gotBody)
	}
	var wantOut, gotOut struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(wantBody, &wantOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gotBody, &gotOut); err != nil {
		t.Fatal(err)
	}
	if len(gotOut.Results) != len(batch.Items) || len(wantOut.Results) != len(batch.Items) {
		t.Fatalf("batch results: coordinator %d, standalone %d, want %d",
			len(gotOut.Results), len(wantOut.Results), len(batch.Items))
	}
	for i := range batch.Items {
		if !sameAnswer(t, gotOut.Results[i], wantOut.Results[i]) {
			t.Errorf("batch item %d (%s): coordinator %s, standalone %s",
				i, batch.Items[i].Task, gotOut.Results[i], wantOut.Results[i])
		}
	}
	// The two error items must really be errors, not vacuously equal.
	for _, i := range []int{len(batch.Items) - 2, len(batch.Items) - 1} {
		var item BatchItem
		if err := json.Unmarshal(gotOut.Results[i], &item); err != nil {
			t.Fatal(err)
		}
		if item.Error == "" {
			t.Errorf("batch item %d: want a per-item error, got %s", i, gotOut.Results[i])
		}
	}
}

// TestCoordinatorForwardShipsWireBudget: a request the coordinator forwards
// whole — a check on a one-worker fabric, or a non-check task — reaches the
// worker carrying the remaining budget minus the merge window, whether the
// client named its budget in the body or in ?budget=. Forwarding the client's
// budget unchanged would let the coordinator's deadline fire first and turn
// the worker's resumable partial into a 504.
func TestCoordinatorForwardShipsWireBudget(t *testing.T) {
	var mu sync.Mutex
	var got []string
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Budget string `json:"budget"`
		}
		data, _ := io.ReadAll(r.Body)
		_ = json.Unmarshal(data, &body)
		mu.Lock()
		got = append(got, body.Budget)
		mu.Unlock()
		switch r.URL.Path {
		case "/v1/check":
			writeJSON(w, http.StatusOK, CheckResponse{Engine: "bounded", Coverage: 1})
		default:
			writeJSON(w, http.StatusOK, ChaseResponse{Implied: true, Verdict: "implied", Engine: "chase"})
		}
	}))
	defer worker.Close()
	coord, err := NewCoordinator(CoordinatorConfig{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord)
	defer ts.Close()

	const budget = 2 * time.Second
	check := checkReq(satFormula)
	chase := ChaseRequest{Arities: []string{"R:3"}, FDs: []string{"R:0->1"}, Sigma: "R:0->1"}
	bodyCheck, bodyChase := check, chase
	bodyCheck.Budget, bodyChase.Budget = budget.String(), budget.String()
	for _, c := range []struct {
		name, url string
		body      any
	}{
		{"check/query", ts.URL + "/v1/check?budget=" + budget.String(), check},
		{"check/body", ts.URL + "/v1/check", bodyCheck},
		{"chase/query", ts.URL + "/v1/chase?budget=" + budget.String(), chase},
		{"chase/body", ts.URL + "/v1/chase", bodyChase},
	} {
		mu.Lock()
		got = nil
		mu.Unlock()
		resp, body := postJSON(t, c.url, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, body)
		}
		mu.Lock()
		seen := got
		mu.Unlock()
		if len(seen) != 1 {
			t.Fatalf("%s: worker saw %d requests, want 1", c.name, len(seen))
		}
		d, err := time.ParseDuration(seen[0])
		if err != nil {
			t.Fatalf("%s: forwarded budget %q: %v", c.name, seen[0], err)
		}
		if d <= 0 || d > budget-budget/5 {
			t.Errorf("%s: forwarded budget %v, want in (0, %v]", c.name, d, budget-budget/5)
		}
	}
}
