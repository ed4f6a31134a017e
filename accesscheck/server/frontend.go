package server

// The HTTP front end both roles serve: strict decoding under the body cap,
// budget resolution, the per-request deadline, the single task routes,
// /v1/batch (buffered or NDJSON) with its mixed-item dispatch, and error
// rendering. A role supplies only its execute step. A Server solves
// locally; a Coordinator plans, dispatches and merges a check, or forwards
// a task whole to a worker. Every route therefore answers with the same
// envelope, status and error code in both roles.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accltl/accesscheck"
)

// executeFunc is a role's execute step: run one request of the given kind
// under ctx's budget and return its outcome with exactly the kind's typed
// response field set (Result for checks). t is the parsed task of a
// non-check kind and nil for a check, which each role parses its own way.
type executeFunc func(ctx context.Context, kind accesscheck.TaskKind, req any, t *accesscheck.Task) (BatchItem, error)

// frontEnd is embedded by Server and Coordinator; mount wires it up.
type frontEnd struct {
	cfg     Config
	mux     *http.ServeMux
	execute executeFunc
	// requests counts requests received per task kind: a single route on
	// arrival, a batch item once its kind is known.
	requests [numTaskKinds]atomic.Uint64
}

// taskRoute is one task kind's row in the route table: its path, a
// constructor for its wire request, the request's budget field, and its
// parser (nil for checks).
type taskRoute struct {
	path   string
	newReq func() any
	budget func(req any) *string
	parse  func(req any) (*accesscheck.Task, error)
}

// route builds a row from typed accessors.
func route[R any](path string, budget func(*R) *string, parse func(*R) (*accesscheck.Task, error)) taskRoute {
	rt := taskRoute{
		path:   path,
		newReq: func() any { return new(R) },
		budget: func(req any) *string { return budget(req.(*R)) },
	}
	if parse != nil {
		rt.parse = func(req any) (*accesscheck.Task, error) { return parse(req.(*R)) }
	}
	return rt
}

// taskRoutes is the route table, indexed by task kind.
var taskRoutes = [numTaskKinds]taskRoute{
	accesscheck.TaskCheck: route("/v1/check",
		func(r *CheckRequest) *string { return &r.Budget }, nil),
	accesscheck.TaskContainment: route("/v1/containment",
		func(r *ContainmentRequest) *string { return &r.Budget }, parseContainmentTask),
	accesscheck.TaskRelevance: route("/v1/relevance",
		func(r *RelevanceRequest) *string { return &r.Budget }, parseRelevanceTask),
	accesscheck.TaskChase: route("/v1/chase",
		func(r *ChaseRequest) *string { return &r.Budget }, parseChaseTask),
}

// mount configures the front end and registers the task routes and
// /v1/batch; the role registers its own routes on fe.mux afterwards.
func (fe *frontEnd) mount(cfg Config, execute executeFunc) {
	fe.cfg, fe.execute, fe.mux = cfg, execute, http.NewServeMux()
	for kind, rt := range taskRoutes {
		fe.mux.HandleFunc("POST "+rt.path, fe.handleTask(accesscheck.TaskKind(kind)))
	}
	fe.mux.HandleFunc("POST /v1/batch", fe.handleBatch)
}

// resolveBudget picks the per-request deadline: item budget, then query
// parameter, then the configured default.
func (fe *frontEnd) resolveBudget(item string, r *http.Request) (time.Duration, error) {
	spec := item
	if spec == "" {
		spec = r.URL.Query().Get("budget")
	}
	if spec == "" {
		return fe.cfg.DefaultBudget, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return 0, badRequest("bad budget %q: %v", spec, err)
	}
	if d <= 0 {
		return 0, badRequest("bad budget %q: must be positive", spec)
	}
	return d, nil
}

// decodeBody reads the JSON body under the size cap; oversized bodies are
// rejected with 413 before they can exhaust memory, and unknown fields with
// 400 — a typo'd option name must fail loudly instead of being silently
// ignored (a misspelled "grounded" would otherwise run the wrong check).
func (fe *frontEnd) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, fe.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError renders a request body that could not be read or decoded:
// 413 past the size cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
}

// handleTask serves the single route of one task kind.
func (fe *frontEnd) handleTask(kind accesscheck.TaskKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fe.requests[kind].Add(1)
		req := taskRoutes[kind].newReq()
		if !fe.decodeBody(w, r, req) {
			return
		}
		item, budget, err := fe.serve(r, kind, req)
		if err != nil {
			writeError(w, err, budget)
			return
		}
		if res := item.Result; res != nil && res.Resumable {
			w.Header().Set("Retry-After", strconv.Itoa(res.RetryAfter))
		}
		writeJSON(w, http.StatusOK, item.payload())
	}
}

// serve runs one decoded request: parse, budget, deadline, execute. The
// returned budget is the retry horizon a 504 suggests. A resumable check
// answer gets the same horizon: re-issued after roughly that long, the
// identical request resumes the stored frontier.
func (fe *frontEnd) serve(r *http.Request, kind accesscheck.TaskKind, req any) (BatchItem, time.Duration, error) {
	rt := &taskRoutes[kind]
	var t *accesscheck.Task
	if rt.parse != nil {
		var err error
		if t, err = rt.parse(req); err != nil {
			return BatchItem{}, fe.cfg.DefaultBudget, err
		}
	}
	budget, err := fe.resolveBudget(*rt.budget(req), r)
	if err != nil {
		return BatchItem{}, fe.cfg.DefaultBudget, err
	}
	// Deadlines are per request, and per item in a batch, all anchored at
	// arrival: an item whose budget expires while queued fails fast
	// instead of holding a slot.
	ctx, cancel := context.WithTimeoutCause(r.Context(), budget, errBudgetExhausted)
	defer cancel()
	item, err := fe.execute(ctx, kind, req, t)
	if err == nil && item.Result != nil && item.Result.Resumable {
		item.Result.RetryAfter = retrySecs(budget)
	}
	return item, budget, err
}

// checkBatchSize validates the two batch forms share one size policy;
// returns the item count or writes the error and returns -1.
func checkBatchSize(w http.ResponseWriter, req *BatchRequest, maxBatch int) int {
	if len(req.Requests) > 0 && len(req.Items) > 0 {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: `batch carries both "requests" and "items"; use one`})
		return -1
	}
	n := len(req.Requests) + len(req.Items)
	if n == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
		return -1
	}
	if n > maxBatch {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("batch of %d exceeds the limit of %d", n, maxBatch)})
		return -1
	}
	return n
}

// wantsNDJSON reports whether the client asked for a streamed batch.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// handleBatch runs every item concurrently, bounded by whatever the
// execute step bounds, and answers in one of two shapes. The default
// buffers everything into one BatchResponse; with "Accept:
// application/x-ndjson" each item streams as its own line the moment it
// completes, so slow items do not delay fast ones reaching the client.
func (fe *frontEnd) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !fe.decodeBody(w, r, &req) {
		return
	}
	n := checkBatchSize(w, &req, fe.cfg.MaxBatch)
	if n < 0 {
		return
	}
	stream := wantsNDJSON(r)
	results := make([]BatchItem, n)
	var done chan int
	if stream {
		done = make(chan int, n)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if stream {
				defer func() { done <- i }()
			}
			results[i] = fe.batchItem(r, &req, i)
		}(i)
	}
	if !stream {
		wg.Wait()
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// Single writer: item goroutines publish completion via the channel
	// (which orders their writes to results[i] before our read), and only
	// this loop touches the ResponseWriter.
	for i := range done {
		_ = enc.Encode(BatchStreamItem{Index: i, BatchItem: results[i]})
		if fl != nil {
			fl.Flush()
		}
	}
}

// batchItem runs item i of a batch: kind dispatch for mixed items, then the
// same path a single route takes. Every failure stays inside the item.
func (fe *frontEnd) batchItem(r *http.Request, req *BatchRequest, i int) BatchItem {
	kind, task := accesscheck.TaskCheck, ""
	var payload any
	if len(req.Requests) > 0 {
		payload = &req.Requests[i]
	} else {
		item := &req.Items[i]
		k, err := accesscheck.ParseTaskKind(item.Task)
		if err != nil {
			return BatchItem{Task: item.Task, Error: err.Error()}
		}
		kind, task, payload = k, k.String(), item.payload(k)
	}
	fe.requests[kind].Add(1)
	if payload == nil {
		return BatchItem{Task: task, Error: fmt.Sprintf("%s item without %q payload", kind, kind.String())}
	}
	out, _, err := fe.serve(r, kind, payload)
	if err != nil {
		out = BatchItem{Error: err.Error()}
	}
	out.Task = task
	return out
}

// payload returns the mixed-batch item's request for kind, or nil when
// that field is absent.
func (t *TaskRequest) payload(kind accesscheck.TaskKind) any {
	switch {
	case kind == accesscheck.TaskCheck && t.Check != nil:
		return t.Check
	case kind == accesscheck.TaskContainment && t.Containment != nil:
		return t.Containment
	case kind == accesscheck.TaskRelevance && t.Relevance != nil:
		return t.Relevance
	case kind == accesscheck.TaskChase && t.Chase != nil:
		return t.Chase
	}
	return nil
}

// slot allocates the typed response field for kind and returns it, so an
// execute step can decode a worker's answer straight into the item.
func (b *BatchItem) slot(kind accesscheck.TaskKind) any {
	switch kind {
	case accesscheck.TaskContainment:
		b.Containment = new(ContainmentResponse)
		return b.Containment
	case accesscheck.TaskRelevance:
		b.Relevance = new(RelevanceResponse)
		return b.Relevance
	case accesscheck.TaskChase:
		b.Chase = new(ChaseResponse)
		return b.Chase
	}
	b.Result = new(CheckResponse)
	return b.Result
}

// payload returns the item's one response field, the body a single route
// answers with.
func (b *BatchItem) payload() any {
	switch {
	case b.Containment != nil:
		return b.Containment
	case b.Relevance != nil:
		return b.Relevance
	case b.Chase != nil:
		return b.Chase
	}
	return b.Result
}
