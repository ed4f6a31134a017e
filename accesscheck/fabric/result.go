package fabric

import (
	"fmt"
	"sort"
)

// ShardResult is the wire form of one worker's partial verdict: the
// outcome of executing a Shard's assigned partition slices. Shards echoes
// the executed canonical indexes so the coordinator can verify coverage
// and resolve witness preference without trusting request/response pairing
// alone.
type ShardResult struct {
	Version int   `json:"version"`
	Shards  []int `json:"shards"`
	// Satisfiable / Witness: a witness found inside any slice is a witness
	// for the whole check (verified against the direct semantics by the
	// engine before it ever reaches the wire).
	Satisfiable bool   `json:"satisfiable"`
	Witness     string `json:"witness,omitempty"`
	// Fragment/engine metadata, identical across all shards of one check —
	// Merge cross-checks that as another identity guard.
	Fragment   string `json:"fragment"`
	InFragment bool   `json:"in_fragment"`
	Decidable  bool   `json:"decidable"`
	Engine     string `json:"engine"`
	Depth      int    `json:"depth"`
	// Truncated / ResponsesCapped qualify an unsatisfiable partial verdict
	// exactly as on accesscheck.Result, scoped to the executed slices.
	Truncated       bool `json:"truncated"`
	ResponsesCapped bool `json:"responses_capped,omitempty"`
	// PathsExplored counts visited prefixes in the executed slices,
	// including the one root visit every slice run makes.
	PathsExplored int     `json:"paths_explored"`
	Cached        bool    `json:"cached"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// ShardsCompleted / ShardsTotal state coverage explicitly: how many of
	// the plan's canonical shards this verdict actually executed, out of
	// how many the plan holds. A worker answering for its assigned subset
	// reports len(Shards) / PlanSize; a coordinator merge reports the
	// union it collected. Completed == Total means a full-cover verdict.
	ShardsCompleted int `json:"shards_completed,omitempty"`
	ShardsTotal     int `json:"shards_total,omitempty"`
}

// Merge folds the partial results of a full partition cover into one
// result, with the same resolution rules the in-process search
// applies across walkers:
//
//   - any witness settles the verdict as satisfiable; among several, the
//     one from the lowest canonical shard index wins (the deterministic
//     preference of a single-walker run);
//   - an unsatisfiable merge ORs the exactness qualifiers — the merged
//     verdict is exact only if every slice ran exhaustively;
//   - a satisfiable merge clears them — a verified witness is definitive
//     regardless of caps elsewhere;
//   - PathsExplored is the sum minus one duplicate root visit per extra
//     part (each part's run visits the root once; a single-process run
//     visits it once in total).
//
// Parts must agree on depth and engine metadata and jointly cover each
// index at most once; disagreement means the workers did not execute the
// same check and surfaces as an error rather than a silently wrong merge.
func Merge(parts []ShardResult) (ShardResult, error) {
	if len(parts) == 0 {
		return ShardResult{}, fmt.Errorf("fabric: merge of zero shard results")
	}
	out := parts[0]
	out.Shards = nil
	seen := make(map[int]bool)
	witnessShard := -1
	sat := false
	var witness string
	trunc, respCapped := false, false
	paths := 0
	cached := true
	elapsed := 0.0
	for i, p := range parts {
		if p.Version != WireVersion {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d has wire version %d, want %d", i, p.Version, WireVersion)
		}
		if len(p.Shards) == 0 {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d covers no shards", i)
		}
		if p.Depth != out.Depth || p.Engine != out.Engine || p.Fragment != out.Fragment {
			return ShardResult{}, fmt.Errorf("fabric: merge part %d (depth %d, engine %s) does not match part 0 (depth %d, engine %s): workers executed different checks",
				i, p.Depth, p.Engine, out.Depth, out.Engine)
		}
		min := p.Shards[0]
		for _, idx := range p.Shards {
			if seen[idx] {
				return ShardResult{}, fmt.Errorf("fabric: shard index %d covered by two merge parts", idx)
			}
			seen[idx] = true
			if idx < min {
				min = idx
			}
			out.Shards = append(out.Shards, idx)
		}
		if p.Satisfiable && (witnessShard < 0 || min < witnessShard) {
			witnessShard = min
			witness = p.Witness
			sat = true
		}
		trunc = trunc || p.Truncated
		respCapped = respCapped || p.ResponsesCapped
		paths += p.PathsExplored
		cached = cached && p.Cached
		if p.ElapsedMS > elapsed {
			elapsed = p.ElapsedMS
		}
	}
	sort.Ints(out.Shards)
	out.Satisfiable = sat
	out.Witness = witness
	out.PathsExplored = paths - (len(parts) - 1)
	out.Cached = cached
	out.ElapsedMS = elapsed
	if sat {
		out.Truncated = false
		out.ResponsesCapped = false
	} else {
		out.Truncated = trunc
		out.ResponsesCapped = respCapped
	}
	out.ShardsCompleted = len(out.Shards)
	out.ShardsTotal = len(out.Shards)
	return out, nil
}

// MergeCover folds whatever partial results survived dispatch into one
// coverage-tagged verdict against a plan of planSize canonical shards —
// the graceful-degradation merge. Witness-over-error priority holds: a
// verified witness from any completed shard settles the whole check as
// satisfiable and exact, however many shards are missing. Without a
// witness, an unsatisfiable claim is only exact under full coverage;
// under partial coverage the verdict is "no witness in the explored
// region" — Satisfiable=false with Truncated set and ShardsCompleted <
// ShardsTotal, which callers surface as Unknown. Partial verdicts must
// never be cache-admitted (the exact-only admission rule handles that,
// since partials are always Truncated).
func MergeCover(parts []ShardResult, planSize int) (ShardResult, error) {
	if planSize <= 0 {
		return ShardResult{}, fmt.Errorf("fabric: merge against empty plan")
	}
	out, err := Merge(parts)
	if err != nil {
		return ShardResult{}, err
	}
	if len(out.Shards) > planSize {
		return ShardResult{}, fmt.Errorf("fabric: merge covers %d shards but the plan holds %d", len(out.Shards), planSize)
	}
	for _, idx := range out.Shards {
		if idx < 0 || idx >= planSize {
			return ShardResult{}, fmt.Errorf("fabric: merge part covers shard %d outside plan of %d", idx, planSize)
		}
	}
	out.ShardsCompleted = len(out.Shards)
	out.ShardsTotal = planSize
	if out.ShardsCompleted < planSize && !out.Satisfiable {
		// The unexplored shards could hold a witness: the unsat claim is
		// not exact, whatever the completed slices reported.
		out.Truncated = true
	}
	return out, nil
}
