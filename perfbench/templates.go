package main

import (
	"fmt"
	"strings"

	"accltl/accesscheck/server"
	"accltl/internal/workload"
)

// checkTemplate is one /v1/check body shape with its known verdict. Every
// relation and method identifier is renamed per request (see renameCheck), which
// keeps the verdict and the resolved engine while giving each body its own
// cache key.
type checkTemplate struct {
	name      string
	relations []string
	methods   []string
	formula   string
	options   *server.CheckOptions
	// engine is the engine the server resolves; sat is the exact verdict.
	engine string
	sat    bool
	// heavy marks the checks that take 4 ms or more to solve.
	heavy bool
}

// The phone-directory schema of the paper's Section 1.
var (
	phoneRelations = []string{"Mobile#:string,string,string,int", "Address:string,string,string,int"}
	phoneMethods   = []string{"AcM1:Mobile#:0", "AcM2:Address:0,1"}
)

// The six-relation widening of the phone schema: ten access methods give a
// depth-4 bounded search several hundred root shards.
var (
	wideRelations = []string{
		"Mobile#:string,string,string,int", "Address:string,string,string,int",
		"Email:string,string", "Phone:string,string", "Fax:string,string", "Pager:string,string",
	}
	wideMethods = []string{
		"AcM1:Mobile#:0", "AcM2:Address:0,1", "AcM3:Email:0", "AcM4:Phone:0", "AcM5:Email:1",
		"AcM6:Phone:1", "AcM7:Fax:0", "AcM8:Fax:1", "AcM9:Pager:0", "AcM10:Pager:1",
	}
)

const (
	phoneSat   = `(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n. bind AcM1(n)]`
	phoneUnsat = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`
	wideUnsat  = phoneUnsat +
		` & [exists a,b. pre Email(a,b)] & [exists a2,b2. pre Email(a2,b2)]` +
		` & [exists c,d. pre Phone(c,d)] & [exists c2,d2. pre Phone(c2,d2)]` +
		` & [exists e1,e2. pre Fax(e1,e2)] & [exists g1,g2. pre Pager(g1,g2)]`
)

// depth4 pins the wide checks to the depth-4 bounded search.
var depth4 = &server.CheckOptions{Engine: "bounded", MaxDepth: 4}

// chainSchema is internal/workload's Chain(k) in accesscheck.ParseSchema
// syntax: unary R0..R{k-1}, binary Link0..Link{k-2}, a free scan of R0,
// membership checks on the other Ri and link-following methods.
func chainSchema(k int) (rels, methods []string) {
	for i := 0; i < k; i++ {
		rels = append(rels, fmt.Sprintf("R%d:int", i))
		if i == 0 {
			methods = append(methods, "scanR0:R0")
		} else {
			methods = append(methods, fmt.Sprintf("chkR%d:R%d:0", i, i))
		}
	}
	for i := 0; i+1 < k; i++ {
		rels = append(rels, fmt.Sprintf("Link%d:int,int", i))
		methods = append(methods, fmt.Sprintf("followLink%d:Link%d:0", i, i))
	}
	return rels, methods
}

// revealed is "some R_i fact revealed" in parser syntax. The chain formulas
// are written out here rather than printed from workload.Chain, whose
// Formula.String() renders atoms as R0post(x), a form ParseFormula rejects.
func revealed(i int) string { return fmt.Sprintf("[exists x. post R%d(x)]", i) }

// nestedEventually is workload.Chain.NestedEventually(n):
// F(q0 & F(q1 & ... F qn)).
func nestedEventually(n int) string {
	f := "F " + revealed(n)
	for i := n - 1; i >= 0; i-- {
		f = "F (" + revealed(i) + " & " + f + ")"
	}
	return f
}

// xTower is workload.Chain.XTower(n): X(q0 & X(q1 & ... X qn)).
func xTower(n int) string {
	f := revealed(n)
	for i := n - 1; i >= 0; i-- {
		f = revealed(i) + " & X (" + f + ")"
	}
	return "X (" + f + ")"
}

func chainTemplate(name string, k int, formula, engine string) checkTemplate {
	rels, methods := chainSchema(k)
	return checkTemplate{name: name, relations: rels, methods: methods, formula: formula, engine: engine, sat: true, heavy: true}
}

// coldTemplates is the cold-mix check population: every engine, from
// sub-millisecond phone checks to the 16 ms wide search.
func coldTemplates() []checkTemplate {
	return []checkTemplate{
		// The introduction's Until query: the AccLTL+ engine with a
		// two-path witness, the cheapest satisfiable check.
		{name: "phone-sat", relations: phoneRelations, methods: phoneMethods, formula: phoneSat, engine: "plus", sat: true},
		// A pre-state contradiction: the X engine must exhaust the space
		// (22 paths) to refute it.
		{name: "phone-unsat", relations: phoneRelations, methods: phoneMethods, formula: phoneUnsat, engine: "x", sat: false},
		// The same Until query compiled to an A-automaton: the emptiness
		// engine's path through internal/autom.
		{name: "phone-sat-automaton", relations: phoneRelations, methods: phoneMethods, formula: phoneSat,
			options: &server.CheckOptions{Engine: "automaton"}, engine: "automaton", sat: true},
		// Nested eventualities down the dataflow chain: the 0-Acc engine,
		// 72 to 184 paths as k grows from 5 to 7.
		chainTemplate("chain5-nested", 5, nestedEventually(4), "0-acc"),
		chainTemplate("chain6-nested", 6, nestedEventually(5), "0-acc"),
		chainTemplate("chain7-nested", 7, nestedEventually(6), "0-acc"),
		// The X tower over the same chains: the X engine on a satisfiable
		// search of the same size.
		chainTemplate("chain5-xtower", 5, xTower(4), "x"),
		chainTemplate("chain6-xtower", 6, xTower(5), "x"),
		chainTemplate("chain7-xtower", 7, xTower(6), "x"),
		// The wide contradiction at depth 4: the bounded engine exhausts 414
		// paths, the most expensive check of the mix.
		{name: "wide-unsat", relations: wideRelations, methods: wideMethods, formula: wideUnsat,
			options: depth4, engine: "bounded", sat: false, heavy: true},
	}
}

// hotTemplates are the cheap checks the hot-mix working set cycles through:
// one per engine, each well under a millisecond to solve, so the warm-up
// that fills the cache stays short.
func hotTemplates() []checkTemplate {
	rels3, methods3 := chainSchema(3)
	return []checkTemplate{
		// Cheapest AccLTL+ check.
		{name: "phone-sat", relations: phoneRelations, methods: phoneMethods, formula: phoneSat, engine: "plus", sat: true},
		// Cheapest X-engine refutation.
		{name: "phone-unsat", relations: phoneRelations, methods: phoneMethods, formula: phoneUnsat, engine: "x", sat: false},
		// Automaton emptiness on an unsatisfiable check: two root shards.
		{name: "phone-unsat-automaton", relations: phoneRelations, methods: phoneMethods, formula: phoneUnsat,
			options: &server.CheckOptions{Engine: "automaton"}, engine: "automaton", sat: false},
		// A short chain keeps the 0-Acc engine in the working set.
		{name: "chain3-nested", relations: rels3, methods: methods3, formula: nestedEventually(2), engine: "0-acc", sat: true},
		// A one-step witness on the wide schema keeps the bounded engine in
		// the working set at a fraction of wide-unsat's cost.
		{name: "wide-bind", relations: wideRelations, methods: wideMethods, formula: `F [exists n. bind AcM1(n)]`,
			options: depth4, engine: "bounded", sat: true},
	}
}

// fabricTemplates are the fabric-wide checks: every one plans enough root
// shards that the coordinator fans it out to both workers.
func fabricTemplates() []checkTemplate {
	return []checkTemplate{
		// The 413-shard wide contradiction: every shard group runs to
		// exhaustion, so dispatch, skew and merge all show.
		{name: "wide-unsat", relations: wideRelations, methods: wideMethods, formula: wideUnsat,
			options: depth4, engine: "bounded", sat: false},
		// Three nested reveals on the wide schema (118 shards): a
		// satisfiable bounded search whose groups stop on a witness.
		{name: "wide-sat-nested", relations: wideRelations, methods: wideMethods,
			formula: `F ([exists a,b. post Email(a,b)] & F ([exists c,d. post Phone(c,d)] & F [exists e,g. post Fax(e,g)]))`,
			options: depth4, engine: "bounded", sat: true},
		// A conjunction revealed in one state (118 shards): a deeper
		// witness than wide-sat-nested for the same plan size.
		{name: "wide-sat-conj", relations: wideRelations, methods: wideMethods,
			formula: `F ([exists a,b. post Pager(a,b)] & [exists a,b. post Fax(a,b)] & [exists a,b. post Phone(a,b)])`,
			options: depth4, engine: "bounded", sat: true},
		// Two nested reveals (74 shards): the cheap end of the sat variants.
		{name: "wide-sat-pair", relations: wideRelations, methods: wideMethods,
			formula: `F ([exists a,b. post Fax(a,b)] & F [exists c,d. post Pager(c,d)])`,
			options: depth4, engine: "bounded", sat: true},
	}
}

// fabricWeights gives wide-unsat two thirds of the fabric-wide stream, which
// puts the median request inside the wide-unsat cluster rather than on its
// boundary with the cheaper sat variants.
var fabricWeights = []int{6, 1, 1, 1}

// chaseScenario is one FD+ID implication question with its known verdict;
// internal/workload has no chase scenarios, so they are written here.
type chaseScenario struct {
	name        string
	req         server.ChaseRequest
	wantImplied bool
}

func chaseScenarios() []chaseScenario {
	return []chaseScenario{
		// FD transitivity: A->B and B->C imply A->C.
		{name: "chase-fd-transitive", req: server.ChaseRequest{
			Arities: []string{"R:3"}, FDs: []string{"R:0->1", "R:1->2"}, Sigma: "R:0->2"}, wantImplied: true},
		// The converse does not follow: the chase reaches a fixpoint that
		// violates C->A.
		{name: "chase-fd-converse", req: server.ChaseRequest{
			Arities: []string{"R:3"}, FDs: []string{"R:0->1", "R:1->2"}, Sigma: "R:2->0"}, wantImplied: false},
		// An inclusion dependency carries S's key into R, so the chase must
		// fire the ID before the FD settles sigma.
		{name: "chase-id-fd", req: server.ChaseRequest{
			Arities: []string{"R:2", "S:2"}, FDs: []string{"S:0->1"}, IDs: []string{"R[0,1]<=S[0,1]"},
			Sigma: "R:0->1"}, wantImplied: true},
	}
}

// taskScenario is one non-check request with its oracle.
type taskScenario struct {
	name string
	kind string // "containment", "relevance" or "chase"
	// idents are the relation and method names rename rewrites.
	idents []string
	body   any
	want   oracle
}

// taskScenarios are internal/workload's containment and relevance
// scenarios plus chaseScenarios, each with its known verdict.
func taskScenarios() []taskScenario {
	var out []taskScenario
	for _, sc := range workload.ContainmentScenarios() {
		req := server.ContainmentRequest{
			Mode: sc.Mode, Q1: sc.Q1, Q2: sc.Q2, Rules: sc.Rules, Goal: sc.Goal,
			Relations: sc.Relations, Methods: sc.Methods, Seed: sc.Seed, Depth: sc.Depth,
		}
		idents := declNames(sc.Relations, sc.Methods)
		idents = append(idents, predicateNames(append([]string{sc.Q1, sc.Q2, sc.Goal + "()"}, sc.Rules...)...)...)
		out = append(out, taskScenario{name: sc.Name, kind: "containment", idents: idents, body: req,
			want: oracle{kind: "containment", verdict: sc.WantContained, exact: sc.WantExact}})
	}
	for _, sc := range workload.RelevanceScenarios() {
		req := server.RelevanceRequest{
			Relations: sc.Relations, Methods: sc.Methods, Probe: sc.Probe, Binding: sc.Binding,
			Query: sc.Query, Hidden: sc.Hidden, Seed: sc.Seed, MaxDepth: sc.MaxDepth,
		}
		out = append(out, taskScenario{name: sc.Name, kind: "relevance", idents: declNames(sc.Relations, sc.Methods), body: req,
			want: oracle{kind: "relevance", verdict: sc.WantVerdict, probe: sc.Probe != ""}})
	}
	for _, sc := range chaseScenarios() {
		out = append(out, taskScenario{name: sc.name, kind: "chase", idents: declNames(sc.req.Arities, nil), body: sc.req,
			want: oracle{kind: "chase", verdict: sc.wantImplied}})
	}
	return out
}

// declNames returns the names declared by "Name:..." relation and method
// declarations.
func declNames(rels, methods []string) []string {
	var out []string
	for _, d := range append(append([]string(nil), rels...), methods...) {
		out = append(out, strings.SplitN(d, ":", 2)[0])
	}
	return out
}

// predicateNames returns every identifier directly followed by '(' in the
// sources: the predicate names of sentences and datalog rules.
func predicateNames(srcs ...string) []string {
	var out []string
	for _, src := range srcs {
		for _, tok := range identTokens(src) {
			if tok.end < len(src) && src[tok.end] == '(' {
				out = append(out, src[tok.start:tok.end])
			}
		}
	}
	return out
}

type span struct{ start, end int }

func isIdentByte(c byte) bool {
	return c == '_' || c == '#' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// identTokens finds the identifier runs of src outside double-quoted
// constants, using the accltl lexer's identifier alphabet.
func identTokens(src string) []span {
	var out []span
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			i = j + 1
		case isIdentByte(c):
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			out = append(out, span{i, j})
			i = j
		default:
			i++
		}
	}
	return out
}

// renamer appends a suffix to every whole identifier token in names,
// leaving quoted constants and every other token alone.
type renamer struct {
	names  map[string]bool
	suffix string
}

func newRenamer(names []string, suffix string) renamer {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return renamer{names: m, suffix: suffix}
}

func (r renamer) str(src string) string {
	var b strings.Builder
	last := 0
	for _, tok := range identTokens(src) {
		if r.names[src[tok.start:tok.end]] {
			b.WriteString(src[last:tok.end])
			b.WriteString(r.suffix)
			last = tok.end
		}
	}
	if last == 0 {
		return src
	}
	b.WriteString(src[last:])
	return b.String()
}

func (r renamer) list(srcs []string) []string {
	if srcs == nil {
		return nil
	}
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = r.str(s)
	}
	return out
}

// renameCheck renders t as a CheckRequest with every relation and method
// renamed by suffix.
func renameCheck(t checkTemplate, suffix string) server.CheckRequest {
	r := newRenamer(declNames(t.relations, t.methods), suffix)
	return server.CheckRequest{
		Relations: r.list(t.relations),
		Methods:   r.list(t.methods),
		Formula:   r.str(t.formula),
		Options:   t.options,
	}
}

// renameTask renders sc's request with every relation, method and predicate
// name renamed by suffix.
func renameTask(sc taskScenario, suffix string) any {
	r := newRenamer(sc.idents, suffix)
	switch req := sc.body.(type) {
	case server.ContainmentRequest:
		req.Q1, req.Q2, req.Goal = r.str(req.Q1), r.str(req.Q2), r.str(req.Goal)
		req.Rules, req.Relations, req.Methods, req.Seed = r.list(req.Rules), r.list(req.Relations), r.list(req.Methods), r.list(req.Seed)
		return req
	case server.RelevanceRequest:
		req.Relations, req.Methods, req.Probe = r.list(req.Relations), r.list(req.Methods), r.str(req.Probe)
		req.Query, req.Hidden, req.Seed = r.str(req.Query), r.list(req.Hidden), r.list(req.Seed)
		return req
	case server.ChaseRequest:
		req.Arities, req.FDs, req.IDs, req.Sigma = r.list(req.Arities), r.list(req.FDs), r.list(req.IDs), r.str(req.Sigma)
		return req
	}
	panic(fmt.Sprintf("renameTask: unknown request type %T", sc.body))
}
