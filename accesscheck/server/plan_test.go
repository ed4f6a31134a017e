package server

import (
	"context"
	"net/http"
	"testing"

	"accltl/accesscheck"
	"accltl/accesscheck/fabric"
	"accltl/internal/lts"
)

// TestWorkerShardPlansOnce: a worker verifies a wire shard against the same
// plan its solve then walks, so each /v1/shard request enumerates the root
// partition exactly once.
func TestWorkerShardPlansOnce(t *testing.T) {
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
	for _, sh := range plan {
		wire := &fabric.Shard{
			Version:   fabric.WireVersion,
			Relations: req.Relations,
			Methods:   req.Methods,
			Formula:   req.Formula,
			PlanSize:  len(plan),
			Shards:    []fabric.ShardRef{{Index: sh.Index, Key: sh.Key, WholeAccess: sh.WholeAccess}},
		}
		before := lts.PlanBuilds()
		resp, body := postJSON(t, ts.URL+"/v1/shard", wire)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", sh.Index, resp.StatusCode, body)
		}
		if n := lts.PlanBuilds() - before; n != 1 {
			t.Errorf("shard %d: the worker enumerated %d times, want once", sh.Index, n)
		}
	}
}
