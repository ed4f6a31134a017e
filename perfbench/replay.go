package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"accltl/accesscheck"
	"accltl/accesscheck/cache"
	"accltl/accesscheck/cachetier"
	"accltl/accesscheck/fabric"
	"accltl/accesscheck/server"
)

// replayer runs a request through the public calls of each layer, in the
// order the server (or, with workers set, the coordinator) makes them,
// recording a span around each call. It owns caches of its own that mirror
// the server's, so its hits and misses follow the same request stream.
type replayer struct {
	ctx    context.Context
	cache  *cachetier.Sharded[accesscheck.TaskResult]
	merged *cache.LRU[fabric.ShardResult]
	client *http.Client
	// workers, when set, makes check replays take the coordinator's path
	// and dispatch their shard groups to these worker URLs.
	workers []string

	mu        sync.Mutex
	paths     int // PathsExplored summed over solved checks
	solves    int
	solveTime time.Duration
	plans     []int // shard-plan sizes
}

func newReplayer(ctx context.Context, c *http.Client, workers []string) *replayer {
	cfg := accserveWorker
	return &replayer{
		ctx: ctx,
		cache: cachetier.NewSharded(cfg.CacheSize, cfg.CacheShards, func(tr accesscheck.TaskResult) bool {
			return cachetier.Admissible(cachetier.Verdict{Truncated: tr.Truncated})
		}),
		merged: cache.New(cfg.CacheSize, func(r fabric.ShardResult) bool {
			return cachetier.Admissible(cachetier.Verdict{
				WitnessSettled: r.Satisfiable, Truncated: r.Truncated,
				Covered: r.ShardsCompleted, Planned: r.ShardsTotal,
			})
		}),
		client:  c,
		workers: workers,
	}
}

// replay runs r under a root span named root and checks the response it
// would encode against r's oracle.
func (p *replayer) replay(t *tracer, req uint64, root string, r request) error {
	id := t.begin(root, req, -1)
	defer t.end(id)
	var body []byte
	var err error
	switch {
	case r.path == "/v1/check" && p.workers != nil:
		body, err = p.fabricCheck(t, req, id, r.body)
	case r.path == "/v1/check":
		body, err = p.check(t, req, id, r.body)
	default:
		body, err = p.task(t, req, id, strings.TrimPrefix(r.path, "/v1/"), r.body)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", r.template, err)
	}
	if err := r.want.verify(body); err != nil {
		return fmt.Errorf("%s: replay: %w", r.template, err)
	}
	return nil
}

// decodeStrict is the server's body decoding: unknown fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkerFor translates wire options into checker options the way the
// server does.
func checkerFor(o *server.CheckOptions, parallelism int) (*accesscheck.Checker, error) {
	opts := []accesscheck.Option{accesscheck.WithParallelism(parallelism)}
	if o != nil {
		engine, err := accesscheck.ParseEngine(o.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, accesscheck.WithEngine(engine), accesscheck.WithMaxDepth(o.MaxDepth),
			accesscheck.WithMaxPaths(o.MaxPaths), accesscheck.WithMaxResponseChoices(o.MaxResponseChoices))
		if o.Grounded {
			opts = append(opts, accesscheck.WithGrounded())
		}
		if o.IdempotentOnly {
			opts = append(opts, accesscheck.WithIdempotentOnly())
		}
		if o.AllExact {
			opts = append(opts, accesscheck.WithAllExact())
		}
		if len(o.ExactMethods) > 0 {
			opts = append(opts, accesscheck.WithExactMethods(o.ExactMethods...))
		}
	}
	return accesscheck.NewChecker(opts...)
}

// parsedCheck is a decoded and parsed check.
type parsedCheck struct {
	chk *accesscheck.Checker
	sch *accesscheck.Schema
	f   accesscheck.Formula
	fp  string
}

// decodeParseFingerprint is the shared head of the server's and the
// coordinator's check paths.
func decodeParseFingerprint(t *tracer, req uint64, root int, body []byte, par int) (server.CheckRequest, parsedCheck, error) {
	var cr server.CheckRequest
	var pc parsedCheck
	s := t.begin("server.decode", req, root)
	err := decodeStrict(body, &cr)
	t.end(s)
	if err != nil {
		return cr, pc, err
	}
	s = t.begin("accesscheck.parse", req, root)
	pc.chk, err = checkerFor(cr.Options, par)
	if err == nil {
		pc.sch, err = accesscheck.ParseSchema(cr.Relations, cr.Methods)
	}
	if err == nil {
		pc.f, err = accesscheck.ParseFormula(cr.Formula)
	}
	t.end(s)
	if err != nil {
		return cr, pc, err
	}
	s = t.begin("accesscheck.fingerprint", req, root)
	pc.fp, err = pc.chk.FingerprintTask(accesscheck.NewCheckTask(pc.sch, pc.f))
	t.end(s)
	return cr, pc, err
}

// plan times Checker.ShardPlan and records the plan size.
func (p *replayer) plan(t *tracer, req uint64, root int, pc parsedCheck) ([]accesscheck.ShardID, error) {
	s := t.begin("accesscheck.shard_plan", req, root)
	plan, _, err := pc.chk.ShardPlan(p.ctx, pc.sch, pc.f)
	t.end(s)
	if err == nil {
		p.mu.Lock()
		p.plans = append(p.plans, len(plan))
		p.mu.Unlock()
	}
	return plan, err
}

// solve times Checker.Check under a span named after the engine that ran.
func (p *replayer) solve(t *tracer, req uint64, root int, pc parsedCheck) (*accesscheck.Result, error) {
	s := t.begin("engine.solve", req, root)
	start := time.Now()
	res, err := pc.chk.Check(p.ctx, pc.sch, pc.f)
	took := time.Since(start)
	if err != nil {
		t.end(s)
		return nil, err
	}
	t.endAs(s, "engine."+res.Engine.String()+".solve")
	p.mu.Lock()
	p.paths += res.PathsExplored
	p.solves++
	p.solveTime += took
	p.mu.Unlock()
	return res, nil
}

// check is the server's /v1/check path: decode, parse, fingerprint, cache
// lookup, then on a miss shard plan, solve and admission, then encode.
// Parallelism is accserve's default per-check value, GOMAXPROCS/workers = 1.
func (p *replayer) check(t *tracer, req uint64, root int, body []byte) ([]byte, error) {
	_, pc, err := decodeParseFingerprint(t, req, root, body, 1)
	if err != nil {
		return nil, err
	}
	s := t.begin("cachetier.lookup", req, root)
	tr, hit := p.cache.Get(pc.fp)
	t.end(s)
	res := tr.Check
	if !hit {
		if _, err := p.plan(t, req, root, pc); err != nil {
			return nil, err
		}
		if res, err = p.solve(t, req, root, pc); err != nil {
			return nil, err
		}
		s = t.begin("cachetier.lookup", req, root)
		p.cache.Add(pc.fp, accesscheck.TaskResult{Kind: accesscheck.TaskCheck, Verdict: res.Satisfiable,
			Truncated: res.Truncated, Engine: res.Engine.String(), Elapsed: res.Elapsed, Check: res})
		t.end(s)
	}
	s = t.begin("server.encode", req, root)
	out, err := json.Marshal(wireCheck(res, hit))
	t.end(s)
	return out, err
}

func wireCheck(res *accesscheck.Result, cached bool) *server.CheckResponse {
	out := &server.CheckResponse{
		Satisfiable: res.Satisfiable, Fragment: res.Fragment.String(), InFragment: res.InFragment,
		Decidable: res.Decidable, Engine: res.Engine.String(), Truncated: res.Truncated,
		ResponsesCapped: res.ResponsesCapped, PathsExplored: res.PathsExplored, Depth: res.Depth,
		ElapsedMS: ms(res.Elapsed), Cached: cached, ShardsCompleted: res.ShardsCompleted,
		ShardsTotal: res.ShardsTotal, Coverage: 1, Resumable: res.Resumable,
	}
	if res.Witness != nil {
		out.Witness = res.Witness.String()
	}
	return out
}

// fabricCheck is the coordinator's /v1/check path: decode, parse,
// fingerprint, merged-result lookup, shard plan, one wire shard per
// affinity owner dispatched in parallel, merge, admission, encode. It then
// runs the single-process check under an "oracle" root and requires the
// same verdict.
func (p *replayer) fabricCheck(t *tracer, req uint64, root int, body []byte) ([]byte, error) {
	cr, pc, err := decodeParseFingerprint(t, req, root, body, 1)
	if err != nil {
		return nil, err
	}
	s := t.begin("cache.lookup", req, root)
	merged, hit := p.merged.Get(pc.fp)
	t.end(s)
	if !hit {
		plan, err := p.plan(t, req, root, pc)
		if err != nil {
			return nil, err
		}
		if merged, err = p.dispatch(t, req, root, cr, pc.fp, plan); err != nil {
			return nil, err
		}
		s = t.begin("cache.lookup", req, root)
		p.merged.Add(pc.fp, merged)
		t.end(s)
	}
	s = t.begin("server.encode", req, root)
	out, err := json.Marshal(&server.CheckResponse{
		Satisfiable: merged.Satisfiable, Fragment: merged.Fragment, InFragment: merged.InFragment,
		Decidable: merged.Decidable, Engine: merged.Engine, Truncated: merged.Truncated,
		ResponsesCapped: merged.ResponsesCapped, PathsExplored: merged.PathsExplored, Depth: merged.Depth,
		Witness: merged.Witness, ElapsedMS: merged.ElapsedMS, Cached: hit,
	})
	t.end(s)
	if err != nil {
		return nil, err
	}

	o := t.begin("oracle", req, -1)
	single, err := p.solve(t, req, o, pc)
	t.end(o)
	if err != nil {
		return nil, err
	}
	if single.Satisfiable != merged.Satisfiable || single.Truncated != merged.Truncated {
		return nil, fmt.Errorf("fabric verdict sat=%v truncated=%v, single-process sat=%v truncated=%v",
			merged.Satisfiable, merged.Truncated, single.Satisfiable, single.Truncated)
	}
	return out, nil
}

// dispatch groups the plan by affinity owner exactly as the coordinator
// does (a fabric.route span over fabric.Router), sends each group to its
// owner, timing Shard.Encode → POST /v1/shard → decode as one fabric.shard
// span, then times fabric.MergeCover.
func (p *replayer) dispatch(t *tracer, req uint64, root int, cr server.CheckRequest, fp string,
	plan []accesscheck.ShardID) (fabric.ShardResult, error) {
	s := t.begin("fabric.route", req, root)
	router := fabric.NewRouter(p.workers)
	groups := map[string][]fabric.ShardRef{}
	var order []string
	for _, sh := range plan {
		owner := router.Sequence(fabric.RouteKey(fp, sh.Key), len(p.workers))[0]
		if _, ok := groups[owner]; !ok {
			order = append(order, owner)
		}
		groups[owner] = append(groups[owner], fabric.ShardRef{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess})
	}
	t.end(s)
	var opts *fabric.CheckOptions
	if o := cr.Options; o != nil {
		opts = &fabric.CheckOptions{Engine: o.Engine, Grounded: o.Grounded, IdempotentOnly: o.IdempotentOnly,
			AllExact: o.AllExact, ExactMethods: o.ExactMethods, MaxDepth: o.MaxDepth, MaxPaths: o.MaxPaths,
			MaxResponseChoices: o.MaxResponseChoices}
	}
	parts := make([]fabric.ShardResult, len(order))
	errs := make([]error, len(order))
	var wg sync.WaitGroup
	for i, owner := range order {
		wire := &fabric.Shard{Version: fabric.WireVersion, Relations: cr.Relations, Methods: cr.Methods,
			Formula: cr.Formula, Options: opts, Budget: "4s", PlanSize: len(plan), Shards: groups[owner]}
		wg.Add(1)
		go func(i int, owner string, wire *fabric.Shard) {
			defer wg.Done()
			s := t.begin("fabric.shard", req, root)
			defer t.end(s)
			parts[i], errs[i] = p.postShard(owner, wire)
		}(i, owner, wire)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fabric.ShardResult{}, err
		}
	}
	s = t.begin("fabric.merge", req, root)
	defer t.end(s)
	return fabric.MergeCover(parts, len(plan))
}

func (p *replayer) postShard(worker string, wire *fabric.Shard) (fabric.ShardResult, error) {
	var out fabric.ShardResult
	data, err := wire.Encode()
	if err != nil {
		return out, err
	}
	req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(data))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("shard status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	err = json.Unmarshal(body, &out)
	return out, err
}

// task is the server's path for the non-check routes.
func (p *replayer) task(t *tracer, req uint64, root int, kind string, body []byte) ([]byte, error) {
	var wire any
	switch kind {
	case "containment":
		wire = new(server.ContainmentRequest)
	case "relevance":
		wire = new(server.RelevanceRequest)
	case "chase":
		wire = new(server.ChaseRequest)
	default:
		return nil, fmt.Errorf("unknown task route %q", kind)
	}
	s := t.begin("server.decode", req, root)
	err := decodeStrict(body, wire)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("accesscheck.parse", req, root)
	task, err := parseTask(wire)
	t.end(s)
	if err != nil {
		return nil, err
	}
	chk, err := accesscheck.NewChecker()
	if err != nil {
		return nil, err
	}
	s = t.begin("accesscheck.fingerprint", req, root)
	fp, err := chk.FingerprintTask(task)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("cachetier.lookup", req, root)
	tr, hit := p.cache.Get(fp)
	t.end(s)
	if !hit {
		s = t.begin("task."+kind+".solve", req, root)
		res, err := chk.Do(p.ctx, task)
		t.end(s)
		if err != nil {
			return nil, err
		}
		tr = *res
		if !tr.Truncated {
			s = t.begin("cachetier.lookup", req, root)
			p.cache.Add(fp, tr)
			t.end(s)
		}
	}
	s = t.begin("server.encode", req, root)
	defer t.end(s)
	return json.Marshal(wireTask(&tr, hit))
}

// parseTask is the server's wire-to-task translation for the non-check
// routes, through the facade's public parsers.
func parseTask(wire any) (*accesscheck.Task, error) {
	var t *accesscheck.Task
	switch req := wire.(type) {
	case *server.ContainmentRequest:
		mode, err := accesscheck.ParseContainmentMode(req.Mode)
		if err != nil {
			return nil, err
		}
		q2, err := accesscheck.ParseSentence(req.Q2)
		if err != nil {
			return nil, err
		}
		switch mode {
		case accesscheck.ContainUCQ:
			q1, err := accesscheck.ParseSentence(req.Q1)
			if err != nil {
				return nil, err
			}
			t = accesscheck.NewUCQContainmentTask(q1, q2)
		case accesscheck.ContainDatalog:
			prog, err := accesscheck.ParseProgram(req.Rules, req.Goal)
			if err != nil {
				return nil, err
			}
			t = accesscheck.NewDatalogContainmentTask(prog, q2, req.Depth)
		case accesscheck.ContainAccess:
			sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
			if err != nil {
				return nil, err
			}
			var seed *accesscheck.Instance
			if len(req.Seed) > 0 {
				if seed, err = accesscheck.ParseInstance(sch, req.Seed); err != nil {
					return nil, err
				}
			}
			q1, err := accesscheck.ParseSentence(req.Q1)
			if err != nil {
				return nil, err
			}
			t = accesscheck.NewAccessContainmentTask(sch, q1, q2, seed, req.Depth)
		}
	case *server.RelevanceRequest:
		sch, err := accesscheck.ParseSchema(req.Relations, req.Methods)
		if err != nil {
			return nil, err
		}
		query, err := accesscheck.ParseSentence(req.Query)
		if err != nil {
			return nil, err
		}
		rt := &accesscheck.RelevanceTask{Schema: sch, Probe: req.Probe, Query: query, Grounded: req.Grounded, MaxDepth: req.MaxDepth}
		if len(req.Hidden) > 0 {
			if rt.Hidden, err = accesscheck.ParseInstance(sch, req.Hidden); err != nil {
				return nil, err
			}
		}
		if len(req.Seed) > 0 {
			if rt.Seed, err = accesscheck.ParseInstance(sch, req.Seed); err != nil {
				return nil, err
			}
		}
		if req.Probe != "" {
			m, ok := sch.Method(req.Probe)
			if !ok {
				return nil, fmt.Errorf("schema has no method %q", req.Probe)
			}
			if rt.Binding, err = accesscheck.ParseBinding(m, req.Binding); err != nil {
				return nil, err
			}
		}
		t = accesscheck.NewRelevanceTask(rt)
	case *server.ChaseRequest:
		ct := &accesscheck.ChaseTask{Arities: map[string]int{}, StepBudget: req.StepBudget}
		for _, a := range req.Arities {
			rel, n, err := accesscheck.ParseArity(a)
			if err != nil {
				return nil, err
			}
			ct.Arities[rel] = n
		}
		for _, src := range req.FDs {
			fd, err := accesscheck.ParseFD(src)
			if err != nil {
				return nil, err
			}
			ct.FDs = append(ct.FDs, fd)
		}
		for _, src := range req.IDs {
			id, err := accesscheck.ParseID(src)
			if err != nil {
				return nil, err
			}
			ct.IDs = append(ct.IDs, id)
		}
		sigma, err := accesscheck.ParseFD(req.Sigma)
		if err != nil {
			return nil, err
		}
		ct.Sigma = sigma
		t = accesscheck.NewChaseTask(ct)
	}
	return t, t.Validate()
}

// wireTask renders the verdict fields of a task result in its wire type.
func wireTask(tr *accesscheck.TaskResult, cached bool) any {
	switch {
	case tr.Containment != nil:
		rep := tr.Containment
		return &server.ContainmentResponse{Contained: rep.Contained, Exact: rep.Exact, Truncated: tr.Truncated,
			Mode: rep.Mode.String(), Engine: tr.Engine, DepthBound: rep.DepthBound,
			ExpansionsChecked: rep.ExpansionsChecked, PathsExplored: rep.PathsExplored,
			Counterexample: rep.Counterexample, Formula: rep.Formula, ElapsedMS: ms(tr.Elapsed), Cached: cached}
	case tr.Relevance != nil:
		rep := tr.Relevance
		return &server.RelevanceResponse{Relevant: rep.Relevant, Answer: rep.Answer, Truncated: tr.Truncated,
			Engine: tr.Engine, PathsExplored: rep.PathsExplored, Depth: rep.Depth, Formula: rep.Formula,
			ElapsedMS: ms(tr.Elapsed), Cached: cached}
	case tr.Chase != nil:
		rep := tr.Chase
		return &server.ChaseResponse{Implied: rep.Implied, Verdict: rep.Verdict, Terminated: rep.Terminated,
			Truncated: tr.Truncated, Engine: tr.Engine, Steps: rep.Steps, Tuples: rep.Tuples,
			StepBudget: rep.Budget, ElapsedMS: ms(tr.Elapsed), Cached: cached}
	}
	return nil
}
