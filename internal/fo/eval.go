package fo

import (
	"fmt"
	"sort"
	"sync"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// Structure is a finite relational structure over the Sch_Acc vocabulary:
// what a single transition of an access path induces (the structure M(t_i)
// of Section 2), or a plain instance viewed through Plain predicates.
type Structure interface {
	// Holds reports whether the predicate contains the tuple. It must not
	// retain t: evaluation reuses the probe tuple.
	Holds(p Pred, t instance.Tuple) bool
	// TuplesOf returns all tuples of the predicate (deterministic order).
	// Evaluation draws variable values from it and takes a listed tuple
	// to hold without asking Holds, so the two must agree.
	TuplesOf(p Pred) []instance.Tuple
	// Domain returns the active domain of the structure: every value
	// occurring in any predicate.
	Domain() []instance.Value
}

// MapStructure is a simple in-memory Structure backed by maps. It is the
// canonical-database representation used by containment checks, and handy
// in tests.
type MapStructure struct {
	rels map[Pred]map[string]instance.Tuple
	dom  map[instance.Value]bool
}

// NewMapStructure returns an empty structure.
func NewMapStructure() *MapStructure {
	return &MapStructure{
		rels: make(map[Pred]map[string]instance.Tuple),
		dom:  make(map[instance.Value]bool),
	}
}

// Add inserts a tuple into predicate p.
func (m *MapStructure) Add(p Pred, t instance.Tuple) {
	rel := m.rels[p]
	if rel == nil {
		rel = make(map[string]instance.Tuple)
		m.rels[p] = rel
	}
	rel[t.Key()] = t.Clone()
	for _, v := range t {
		m.dom[v] = true
	}
}

// Holds implements Structure.
func (m *MapStructure) Holds(p Pred, t instance.Tuple) bool {
	rel := m.rels[p]
	if rel == nil {
		return false
	}
	_, ok := rel[t.Key()]
	return ok
}

// TuplesOf implements Structure.
func (m *MapStructure) TuplesOf(p Pred) []instance.Tuple {
	rel := m.rels[p]
	if len(rel) == 0 {
		return nil
	}
	out := make([]instance.Tuple, 0, len(rel))
	for _, t := range rel {
		out = append(out, t)
	}
	sortTuples(out)
	return out
}

// Domain implements Structure.
func (m *MapStructure) Domain() []instance.Value {
	out := make([]instance.Value, 0, len(m.dom))
	for v := range m.dom {
		out = append(out, v)
	}
	sortValues(out)
	return out
}

// Preds returns the predicates with at least one tuple.
func (m *MapStructure) Preds() []Pred {
	out := make([]Pred, 0, len(m.rels))
	for p, rel := range m.rels {
		if len(rel) > 0 {
			out = append(out, p)
		}
	}
	sortPreds(out)
	return out
}

// Size returns the total number of tuples.
func (m *MapStructure) Size() int {
	n := 0
	for _, rel := range m.rels {
		n += len(rel)
	}
	return n
}

func sortTuples(ts []instance.Tuple) {
	sortSlice(len(ts), func(i, j int) bool { return ts[i].Less(ts[j]) }, func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
}

func sortValues(vs []instance.Value) {
	sortSlice(len(vs), func(i, j int) bool { return vs[i].Less(vs[j]) }, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
}

func sortPreds(ps []Pred) {
	sortSlice(len(ps), func(i, j int) bool {
		if ps[i].Stage != ps[j].Stage {
			return ps[i].Stage < ps[j].Stage
		}
		return ps[i].Name < ps[j].Name
	}, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
}

// sortSlice is a tiny insertion sort avoiding repeated sort.Slice closures
// allocation in hot paths; n is small throughout this package's uses.
func sortSlice(n int, less func(i, j int) bool, swap func(i, j int)) {
	for i := 1; i < n; i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			swap(j, j-1)
		}
	}
}

// Eval decides whether the sentence f holds in st. Quantifiers range over
// the structure's active domain extended with the constants of f and a small
// reserve of fresh values per datatype; for positive existential formulas
// with equality and inequality this extension is complete (a fresh witness
// is needed only to satisfy ≠ against all current values, and one fresh
// value per quantified variable suffices).
//
// That domain is built lazily: only when the search reaches a quantified
// variable that no conjunctive atom of its quantifier's body mentions (one
// constrained only under a disjunction, a negation or an (in)equality).
// Every other variable ranges over the values its generator atom's tuples
// provide, which are complete for it. Eval is Prepare(f).Eval(st); callers
// evaluating one sentence on many structures should prepare it once.
//
// Eval returns an error when f has free variables.
func Eval(f Formula, st Structure) (bool, error) {
	return Prepare(f).Eval(st)
}

// EvalWith decides f under an environment binding its free variables.
func EvalWith(f Formula, st Structure, env map[string]instance.Value) (bool, error) {
	return Prepare(f).EvalWith(st, env)
}

// Prepared is a formula compiled once for repeated evaluation. Everything
// that does not depend on the structure is done by Prepare: variables are
// resolved to slots (an inner quantifier rebinding a name gets its own
// slot, so it shadows the outer one), and the free variables, constants,
// fresh-value reserve and each quantified variable's generator atom are
// computed up front. A Prepared is immutable and safe for concurrent use.
type Prepared struct {
	f         Formula
	root      *node
	free      []string // free variables, sorted
	freeSlots []int    // slot of each free variable, parallel to free
	nslots    int
	natoms    int
	maxArity  int
	consts    []instance.Value // Constants(f)
	nvars     int              // quantified variables: the fresh reserve per type
	fresh     []instance.Value // the fresh string reserve
}

type nodeKind uint8

const (
	kTruth nodeKind = iota
	kAtom
	kEq
	kNeq
	kAnd
	kOr
	kNot
	kExists
)

// node is a compiled formula node. Eq and Neq keep their sides in args;
// Not and Exists keep their operand in kids[0].
type node struct {
	kind nodeKind
	val  bool // kTruth
	pred Pred // kAtom
	id   int  // kAtom: index among the formula's atoms
	args []term
	kids []*node
	vars []qvar // kExists
}

// term is a compiled Term: a variable slot, or slot -1 and a constant.
type term struct {
	slot int
	val  instance.Value
}

// qvar is a quantified variable. gen is the first atom occurring
// conjunctively in the quantifier's body (through And and nested Exists)
// with the variable at position pos: every witness value appears there, so
// its tuples are a complete candidate set. gen is nil when no such atom
// exists, and the variable ranges over the full domain. A variable its body
// never mentions is not enumerated at all (the domain is never empty when
// a variable is quantified).
type qvar struct {
	slot int
	used bool
	gen  *node
	pos  int
}

// Prepare compiles f for repeated evaluation.
func Prepare(f Formula) *Prepared {
	c := compiler{free: make(map[string]int)}
	p := &Prepared{f: f, root: c.compile(f)}
	p.nslots, p.natoms, p.maxArity = len(c.used), c.atoms, c.maxArity
	for v := range c.free {
		p.free = append(p.free, v)
	}
	sort.Strings(p.free)
	for _, v := range p.free {
		p.freeSlots = append(p.freeSlots, c.free[v])
	}
	p.consts = Constants(f)
	p.nvars = c.quantified
	for i := 0; i < p.nvars; i++ {
		p.fresh = append(p.fresh, instance.Str(fmt.Sprintf("$fresh%d", i)))
	}
	return p
}

// Formula returns the formula p was prepared from.
func (p *Prepared) Formula() Formula { return p.f }

// Eval decides whether the sentence holds in st; see the package-level
// Eval. It returns an error when the formula has free variables.
func (p *Prepared) Eval(st Structure) (bool, error) {
	if len(p.free) != 0 {
		return false, fmt.Errorf("fo: Eval of open formula %s (free vars %v)", p.f, p.free)
	}
	s := p.acquire(st)
	defer s.release()
	return s.eval(p.root), nil
}

// EvalWith decides the formula under an environment binding its free
// variables.
func (p *Prepared) EvalWith(st Structure, env map[string]instance.Value) (bool, error) {
	for _, v := range p.free {
		if _, ok := env[v]; !ok {
			return false, fmt.Errorf("fo: EvalWith: free variable %s unbound", v)
		}
	}
	s := p.acquire(st)
	defer s.release()
	for i, v := range p.free {
		s.bind(p.freeSlots[i], env[v])
	}
	return s.eval(p.root), nil
}

// compiler resolves variable names to slots while building the node tree.
type compiler struct {
	scope      []binder       // quantified variables in scope, innermost last
	free       map[string]int // free variable → slot
	used       []bool         // per slot: mentioned anywhere
	atoms      int
	quantified int
	maxArity   int
}

type binder struct {
	name string
	slot int
}

func (c *compiler) newSlot() int {
	c.used = append(c.used, false)
	return len(c.used) - 1
}

func (c *compiler) term(t Term) term {
	if !t.IsVar() {
		return term{slot: -1, val: t.Value()}
	}
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == t.Name() {
			c.used[c.scope[i].slot] = true
			return term{slot: c.scope[i].slot}
		}
	}
	s, ok := c.free[t.Name()]
	if !ok {
		s = c.newSlot()
		c.free[t.Name()] = s
	}
	c.used[s] = true
	return term{slot: s}
}

func (c *compiler) compileAll(fs []Formula) []*node {
	out := make([]*node, len(fs))
	for i, f := range fs {
		out[i] = c.compile(f)
	}
	return out
}

func (c *compiler) compile(f Formula) *node {
	switch g := f.(type) {
	case Truth:
		return &node{kind: kTruth, val: g.Val}
	case Atom:
		n := &node{kind: kAtom, pred: g.Pred, id: c.atoms, args: make([]term, len(g.Args))}
		c.atoms++
		for i, a := range g.Args {
			n.args[i] = c.term(a)
		}
		if len(g.Args) > c.maxArity {
			c.maxArity = len(g.Args)
		}
		return n
	case Eq:
		return &node{kind: kEq, args: []term{c.term(g.L), c.term(g.R)}}
	case Neq:
		return &node{kind: kNeq, args: []term{c.term(g.L), c.term(g.R)}}
	case And:
		return &node{kind: kAnd, kids: c.compileAll(g.Conj)}
	case Or:
		return &node{kind: kOr, kids: c.compileAll(g.Disj)}
	case Not:
		return &node{kind: kNot, kids: []*node{c.compile(g.F)}}
	case Exists:
		n := &node{kind: kExists, vars: make([]qvar, len(g.Vars))}
		outer := len(c.scope)
		for i, v := range g.Vars {
			n.vars[i].slot = c.newSlot()
			c.scope = append(c.scope, binder{name: v, slot: n.vars[i].slot})
		}
		c.quantified += len(g.Vars)
		body := c.compile(g.Body)
		n.kids = []*node{body}
		c.scope = c.scope[:outer]
		for i := range n.vars {
			q := &n.vars[i]
			q.used = c.used[q.slot]
			q.gen, q.pos = generator(body, q.slot)
		}
		return n
	default:
		return &node{kind: kTruth}
	}
}

// generator finds the first atom occurring conjunctively in n (through And
// and nested Exists, never under Or or Not) that mentions slot, and the
// position it occupies there.
func generator(n *node, slot int) (*node, int) {
	switch n.kind {
	case kAtom:
		for i, a := range n.args {
			if a.slot == slot {
				return n, i
			}
		}
	case kAnd:
		for _, k := range n.kids {
			if g, pos := generator(k, slot); g != nil {
				return g, pos
			}
		}
	case kExists:
		return generator(n.kids[0], slot)
	}
	return nil, -1
}

// evaluation is the scratch state of one Prepared.Eval call. It is pooled,
// so a warm evaluation allocates nothing of its own.
type evaluation struct {
	p     *Prepared
	st    Structure
	vals  []instance.Value // per slot
	bound []bool           // per slot
	tup   instance.Tuple   // atom probe buffer (Holds must not retain it)
	cands []instance.Value // stack of candidate segments, one per open variable
	lists []listing        // TuplesOf results, fetched once per predicate
	held  []bool           // per atom: instantiated by the current candidate
	seen  map[instance.Value]bool
	dom   []instance.Value // the quantification domain, once built
	built bool
}

type listing struct {
	pred   Pred
	tuples []instance.Tuple
}

var evaluations = sync.Pool{New: func() any { return new(evaluation) }}

func (p *Prepared) acquire(st Structure) *evaluation {
	s := evaluations.Get().(*evaluation)
	s.p, s.st = p, st
	if cap(s.vals) < p.nslots {
		s.vals = make([]instance.Value, p.nslots)
		s.bound = make([]bool, p.nslots)
	}
	s.vals, s.bound = s.vals[:p.nslots], s.bound[:p.nslots]
	if cap(s.tup) < p.maxArity {
		s.tup = make(instance.Tuple, p.maxArity)
	}
	if cap(s.held) < p.natoms {
		s.held = make([]bool, p.natoms)
	}
	s.held = s.held[:p.natoms]
	return s
}

func (s *evaluation) release() {
	clear(s.bound)
	clear(s.held)
	s.p, s.st = nil, nil
	clear(s.lists)
	s.cands, s.dom, s.built, s.lists = s.cands[:0], s.dom[:0], false, s.lists[:0]
	evaluations.Put(s)
}

func (s *evaluation) bind(slot int, v instance.Value) {
	s.vals[slot], s.bound[slot] = v, true
}

func (s *evaluation) value(t term) (instance.Value, bool) {
	if t.slot < 0 {
		return t.val, true
	}
	return s.vals[t.slot], s.bound[t.slot]
}

func (s *evaluation) eval(n *node) bool {
	switch n.kind {
	case kTruth:
		return n.val
	case kAtom:
		if s.held[n.id] {
			return true
		}
		tup := s.tup[:len(n.args)]
		for i, a := range n.args {
			v, ok := s.value(a)
			if !ok {
				return false
			}
			tup[i] = v
		}
		return s.st.Holds(n.pred, tup)
	case kEq, kNeq:
		l, lok := s.value(n.args[0])
		r, rok := s.value(n.args[1])
		return lok && rok && (l == r) == (n.kind == kEq)
	case kAnd:
		for _, k := range n.kids {
			if !s.eval(k) {
				return false
			}
		}
		return true
	case kOr:
		for _, k := range n.kids {
			if s.eval(k) {
				return true
			}
		}
		return false
	case kNot:
		return !s.eval(n.kids[0])
	case kExists:
		return s.exists(n.vars, n.kids[0])
	default:
		return false
	}
}

// exists enumerates assignments for the quantified variables in order:
// each ranges over its generator atom's candidates, or over the domain when
// it has none, and the body is evaluated once all are bound.
func (s *evaluation) exists(vars []qvar, body *node) bool {
	if len(vars) == 0 {
		return s.eval(body)
	}
	q := &vars[0]
	if !q.used {
		return s.exists(vars[1:], body)
	}
	found := false
	if q.gen == nil {
		for _, v := range s.domain() {
			s.bind(q.slot, v)
			if found = s.exists(vars[1:], body); found {
				break
			}
		}
	} else {
		// Nested variables push their segments above this one, and may
		// reallocate the stack, so index it afresh on every iteration.
		start := len(s.cands)
		pinned := s.candidates(q.gen, q.pos)
		s.held[q.gen.id] = pinned
		for i, end := start, len(s.cands); i < end; i++ {
			s.bind(q.slot, s.cands[i])
			if found = s.exists(vars[1:], body); found {
				break
			}
		}
		s.held[q.gen.id] = false
		s.cands = s.cands[:start]
	}
	s.bound[q.slot] = false
	return found
}

// candidates pushes the distinct values at position pos of the atom's
// tuples that agree with its constants and with the variables already
// bound. A witness must satisfy the atom, so no other value can work. It
// reports whether the atom is pinned: every other position is already
// determined, so each candidate instantiates the atom to a listed tuple.
func (s *evaluation) candidates(a *node, pos int) (pinned bool) {
	slot := a.args[pos].slot
	// Distinct tuples give distinct values at pos unless another position
	// holds a variable still unbound; only then can values repeat.
	dedupe := false
	for i, t := range a.args {
		if i != pos && t.slot >= 0 && t.slot != slot && !s.bound[t.slot] {
			dedupe = true
		}
	}
	start := len(s.cands)
	for _, tup := range s.tuplesOf(a.pred) {
		if len(tup) != len(a.args) || !s.agrees(a, tup, pos) {
			continue
		}
		v := tup[pos]
		if dedupe {
			if s.seen[v] {
				continue
			}
			if s.seen == nil {
				s.seen = make(map[instance.Value]bool)
			}
			s.seen[v] = true
		}
		s.cands = append(s.cands, v)
	}
	if dedupe {
		for _, v := range s.cands[start:] {
			delete(s.seen, v)
		}
	}
	return !dedupe
}

// tuplesOf lists the predicate's tuples, asking the structure only once
// per evaluation.
func (s *evaluation) tuplesOf(p Pred) []instance.Tuple {
	for _, l := range s.lists {
		if l.pred == p {
			return l.tuples
		}
	}
	ts := s.st.TuplesOf(p)
	s.lists = append(s.lists, listing{pred: p, tuples: ts})
	return ts
}

// agrees reports whether tup can instantiate atom a with the variable at
// pos taking tup[pos].
func (s *evaluation) agrees(a *node, tup instance.Tuple, pos int) bool {
	slot := a.args[pos].slot
	for i, t := range a.args {
		switch {
		case i == pos:
		case t.slot < 0:
			if tup[i] != t.val {
				return false
			}
		case t.slot == slot:
			if tup[i] != tup[pos] {
				return false
			}
		case s.bound[t.slot]:
			if tup[i] != s.vals[t.slot] {
				return false
			}
		}
	}
	return true
}

// domain returns the quantification domain, building it on first use:
// the structure's active domain, the formula's constants, then a fresh
// reserve of ints (below every present int), strings and both booleans.
func (s *evaluation) domain() []instance.Value {
	if s.built {
		return s.dom
	}
	s.built = true
	if s.seen == nil {
		s.seen = make(map[instance.Value]bool)
	}
	dom := s.dom[:0]
	add := func(v instance.Value) {
		if !s.seen[v] {
			s.seen[v] = true
			dom = append(dom, v)
		}
	}
	for _, v := range s.st.Domain() {
		add(v)
	}
	for _, v := range s.p.consts {
		add(v)
	}
	if n := s.p.nvars; n > 0 {
		var minInt int64
		for _, v := range dom {
			if v.Kind() == schema.TypeInt && v.AsInt() < minInt {
				minInt = v.AsInt()
			}
		}
		for i := 1; i <= n; i++ {
			add(instance.Int(minInt - int64(i) - 1000000007))
		}
		for _, v := range s.p.fresh {
			add(v)
		}
		add(instance.Bool(true))
		add(instance.Bool(false))
	}
	for _, v := range dom {
		delete(s.seen, v)
	}
	s.dom = dom
	return dom
}

// ShareDomain wraps st so that its Domain is computed at most once: the
// sentences evaluated on one transition then share a single active-domain
// build among those that need one. The wrapper is not safe for concurrent
// use.
func ShareDomain(st Structure) Structure { return &sharedDomain{Structure: st} }

type sharedDomain struct {
	Structure
	dom   []instance.Value
	built bool
}

func (s *sharedDomain) Domain() []instance.Value {
	if !s.built {
		s.dom, s.built = s.Structure.Domain(), true
	}
	return s.dom
}
