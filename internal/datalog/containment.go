package datalog

import (
	"context"
	"fmt"

	"accltl/internal/fo"
)

// Proof-tree expansions and containment in positive queries.
//
// A Datalog program is equivalent to the (possibly infinite) union of the
// conjunctive queries obtained by unfolding the goal through the rules.
// P is contained in a positive sentence ϕ over the extensional schema iff
// every expansion, frozen into its canonical database, satisfies ϕ —
// positive sentences are monotone, so the canonical database is the hardest
// instance each expansion produces. Chaudhuri–Vardi bound the expansions
// that must be examined; Proposition 4.11 extends their theorem to
// constants. We enumerate expansions breadth-first up to a depth bound:
// exact for nonrecursive programs (finitely many expansions), and for
// recursive programs exact refutation / bounded confirmation, with the
// bound reported in the result.

// Expansion is one unfolding of the goal: a conjunctive query over the
// extensional schema, remembering the unfolding depth that produced it.
type Expansion struct {
	CQ    fo.CQ
	Depth int
}

// Expansions unfolds the goal into extensional CQs, exploring unfoldings
// whose rule-application depth is at most maxDepth. The result is complete
// for the program restricted to proof trees of that height; truncated
// reports whether any unfolding was cut off by the bound.
func (p *Program) Expansions(maxDepth int) ([]Expansion, bool, error) {
	return p.ExpansionsCtx(context.Background(), maxDepth)
}

// ExpansionsCtx is Expansions honouring a context: cancellation or deadline
// expiry aborts the breadth-first unfolding promptly with the context's
// error, so a served containment check cannot outlive its budget inside a
// recursive program's expansion space.
func (p *Program) ExpansionsCtx(ctx context.Context, maxDepth int) ([]Expansion, bool, error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	// Start from the goal atom with fresh distinct variables.
	counter := 0
	freshVar := func() fo.Term {
		counter++
		return fo.Var(fmt.Sprintf("_e%d", counter))
	}
	goalArity := 0
	for _, r := range p.Rules {
		if r.Head.Pred == p.Goal {
			goalArity = len(r.Head.Args)
			break
		}
	}
	goalArgs := make([]fo.Term, goalArity)
	for i := range goalArgs {
		goalArgs[i] = freshVar()
	}
	type state struct {
		atoms []fo.Atom
		depth int
	}
	var out []Expansion
	truncated := false
	seen := make(map[string]bool)
	queue := []state{{atoms: []fo.Atom{{Pred: p.Goal, Args: goalArgs}}, depth: 0}}
	polled := 0
	for len(queue) > 0 {
		// Poll the context every few dequeues: recursive programs can have
		// expansion spaces exponential in the depth bound.
		if polled++; polled&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, false, err
			}
		}
		cur := queue[0]
		queue = queue[1:]
		// Find first intensional atom.
		idx := -1
		for i, a := range cur.atoms {
			if p.isIDB(a.Pred) {
				idx = i
				break
			}
		}
		if idx == -1 {
			cq := fo.CQ{Atoms: cur.atoms}
			key := cq.String()
			if !seen[key] {
				seen[key] = true
				out = append(out, Expansion{CQ: cq, Depth: cur.depth})
			}
			continue
		}
		if cur.depth >= maxDepth {
			truncated = true
			continue // proof tree too deep; dropped (bounded completeness)
		}
		target := cur.atoms[idx]
		for _, r := range p.Rules {
			if r.Head.Pred != target.Pred {
				continue
			}
			next, ok := unfold(cur.atoms, idx, r, freshVar)
			if !ok {
				continue
			}
			queue = append(queue, state{atoms: next, depth: cur.depth + 1})
		}
	}
	return out, truncated, nil
}

// unfold replaces atoms[idx] with the body of rule r, renaming rule
// variables apart and unifying the head with the atom. Unification here is
// matching head terms against atom terms: head variables map to atom terms;
// repeated head variables and head constants induce equalities which we
// substitute eagerly. Returns ok=false on constant clash.
func unfold(atoms []fo.Atom, idx int, r Rule, freshVar func() fo.Term) ([]fo.Atom, bool) {
	target := atoms[idx]
	// Rename rule variables apart.
	ren := make(map[string]fo.Term)
	renameTerm := func(t fo.Term) fo.Term {
		if !t.IsVar() {
			return t
		}
		if nt, ok := ren[t.Name()]; ok {
			return nt
		}
		nt := freshVar()
		ren[t.Name()] = nt
		return nt
	}
	head := make([]fo.Term, len(r.Head.Args))
	for i, t := range r.Head.Args {
		head[i] = renameTerm(t)
	}
	body := make([]fo.Atom, len(r.Body))
	for i, a := range r.Body {
		args := make([]fo.Term, len(a.Args))
		for j, t := range a.Args {
			args[j] = renameTerm(t)
		}
		body[i] = fo.Atom{Pred: a.Pred, Args: args}
	}
	// Unify head with target: build substitution on the fresh rule vars
	// and/or the target's vars.
	subst := make(map[string]fo.Term)
	resolve := func(t fo.Term) fo.Term {
		for t.IsVar() {
			nt, ok := subst[t.Name()]
			if !ok {
				break
			}
			t = nt
		}
		return t
	}
	for i := range head {
		h := resolve(head[i])
		g := resolve(target.Args[i])
		switch {
		case h.IsVar():
			if !(g.IsVar() && g.Name() == h.Name()) {
				subst[h.Name()] = g
			}
		case g.IsVar():
			subst[g.Name()] = h
		default:
			if h.Value() != g.Value() {
				return nil, false // constant clash
			}
		}
	}
	apply := func(a fo.Atom) fo.Atom {
		args := make([]fo.Term, len(a.Args))
		for i, t := range a.Args {
			args[i] = resolve(t)
		}
		return fo.Atom{Pred: a.Pred, Args: args}
	}
	out := make([]fo.Atom, 0, len(atoms)-1+len(body))
	for i, a := range atoms {
		if i == idx {
			continue
		}
		out = append(out, apply(a))
	}
	for _, a := range body {
		out = append(out, apply(a))
	}
	return out, true
}

// ContainmentResult is the outcome of a containment check.
type ContainmentResult struct {
	// Contained is the verdict: true means every examined expansion's
	// canonical database satisfies the sentence.
	Contained bool
	// Counterexample, when not contained, is the canonical database of a
	// violating expansion.
	Counterexample *fo.MapStructure
	// Exact reports whether the verdict is unconditional: refutations are
	// always exact; confirmations are exact when the program is
	// nonrecursive or every expansion fit within the depth bound.
	Exact bool
	// ExpansionsChecked counts examined expansions.
	ExpansionsChecked int
	// DepthBound is the unfolding bound used.
	DepthBound int
}

// DefaultContainmentDepth derives the unfolding bound from program size:
// enough for every nonrecursive program (depth ≤ #IDB predicates suffices
// to unfold each stratum once) with headroom for shallow recursion.
func (p *Program) DefaultContainmentDepth() int {
	d := len(p.IDB()) + 2
	if p.IsRecursive() {
		d += len(p.Rules)
	}
	return d
}

// ContainedIn decides whether the program is contained in the positive
// first-order sentence phi over the extensional schema (Proposition 4.11).
// depth == 0 uses DefaultContainmentDepth.
func (p *Program) ContainedIn(phi fo.Formula, depth int) (ContainmentResult, error) {
	return p.ContainedInCtx(context.Background(), phi, depth)
}

// ContainedInCtx is ContainedIn honouring a context throughout expansion
// enumeration and per-expansion evaluation.
func (p *Program) ContainedInCtx(ctx context.Context, phi fo.Formula, depth int) (ContainmentResult, error) {
	if err := fo.CheckPositiveSentence(phi); err != nil {
		return ContainmentResult{}, err
	}
	if depth == 0 {
		depth = p.DefaultContainmentDepth()
	}
	exps, truncated, err := p.ExpansionsCtx(ctx, depth)
	if err != nil {
		return ContainmentResult{}, err
	}
	res := ContainmentResult{Contained: true, DepthBound: depth}
	sentence := fo.Prepare(phi)
	for _, e := range exps {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		db, _, ok := e.CQ.CanonicalDB()
		if !ok {
			continue
		}
		res.ExpansionsChecked++
		holds, err := sentence.Eval(db)
		if err != nil {
			return res, err
		}
		if !holds {
			res.Contained = false
			res.Counterexample = db
			res.Exact = true // a counterexample refutes unconditionally
			return res, nil
		}
	}
	// Confirmation is exact when no proof tree was cut off by the bound.
	res.Exact = !truncated
	return res, nil
}
