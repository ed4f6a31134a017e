package lts

// Engine-equivalence golden test: refExplore below is the pre-rewrite
// clone-per-child exploration, kept as an executable specification of the
// search semantics. The mutate-and-undo core must visit the *identical*
// sequence of (path, configuration) pairs — same paths, same configs, same
// order — and return the identical Report across every option combination,
// or a solver built on it could silently change verdicts.

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// refVisitor is the pre-rewrite visitor shape: path and final configuration.
type refVisitor func(p *access.Path, conf *instance.Instance) (bool, error)

type refExplorer struct {
	sch         *schema.Schema
	opts        Options
	visit       refVisitor
	paths       int
	pathsCapped bool
	respCapped  bool
}

// refExplore mirrors the historical Explore implementation: it clones the
// path and the configuration for every child and materializes the whole
// 2^n response fan-out per access.
func refExplore(sch *schema.Schema, opts Options, visit refVisitor) (Report, error) {
	o := opts.withDefaults()
	if o.Universe == nil {
		return Report{}, fmt.Errorf("lts: refExplore requires a Universe instance")
	}
	init := o.Initial
	if init == nil {
		init = instance.NewInstance(sch)
	}
	e := &refExplorer{sch: sch, opts: o, visit: visit}
	p := access.NewPath(sch)
	conf := init.Clone()
	known := make(map[instance.Value]bool)
	for _, v := range init.ActiveDomain() {
		known[v] = true
	}
	err := e.rec(p, conf, known, make(map[string]string))
	rep := Report{Paths: e.paths, PathsCapped: e.pathsCapped, ResponsesCapped: e.respCapped}
	if err == ErrStop {
		return rep, nil
	}
	return rep, err
}

func (e *refExplorer) rec(p *access.Path, conf *instance.Instance, known map[instance.Value]bool, idem map[string]string) error {
	if e.opts.MaxPaths > 0 && e.paths >= e.opts.MaxPaths {
		e.pathsCapped = true
		return ErrStop
	}
	e.paths++
	expand, err := e.visit(p, conf)
	if err != nil {
		return err
	}
	if !expand || p.Len() >= e.opts.MaxDepth {
		return nil
	}
	for _, m := range e.sch.Methods() {
		for _, b := range e.bindings(m, known) {
			acc, err := access.NewAccess(m, b)
			if err != nil {
				if errors.Is(err, access.ErrTypeMismatch) {
					continue
				}
				return err
			}
			for _, resp := range e.responses(acc) {
				if e.opts.IdempotentOnly {
					fp := access.ResponseFingerprint(resp)
					if prev, seen := idem[acc.Key()]; seen && prev != fp {
						continue
					}
				}
				if err := e.step(p, conf, known, idem, acc, resp); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (e *refExplorer) step(p *access.Path, conf *instance.Instance, known map[instance.Value]bool, idem map[string]string, acc access.Access, resp []instance.Tuple) error {
	np := p.Clone()
	if err := np.Append(acc, resp); err != nil {
		return err
	}
	nconf := conf.Clone()
	rel := acc.Method.Relation().Name()
	for _, t := range resp {
		if _, err := nconf.Add(rel, t); err != nil {
			return err
		}
	}
	var added []instance.Value
	for _, t := range resp {
		for _, v := range t {
			if !known[v] {
				known[v] = true
				added = append(added, v)
			}
		}
	}
	var idemKey string
	var idemSet bool
	if e.opts.IdempotentOnly {
		if _, seen := idem[acc.Key()]; !seen {
			idemKey = acc.Key()
			idem[idemKey] = access.ResponseFingerprint(resp)
			idemSet = true
		}
	}
	err := e.rec(np, nconf, known, idem)
	for _, v := range added {
		delete(known, v)
	}
	if idemSet {
		delete(idem, idemKey)
	}
	return err
}

func (e *refExplorer) bindings(m *schema.AccessMethod, known map[instance.Value]bool) []instance.Tuple {
	pool := e.bindingPool(known)
	types := m.InputTypes()
	if len(types) == 0 {
		return []instance.Tuple{{}}
	}
	byType := make(map[schema.Type][]instance.Value)
	for _, v := range pool {
		byType[v.Kind()] = append(byType[v.Kind()], v)
	}
	var out []instance.Tuple
	cur := make(instance.Tuple, len(types))
	var build func(i int)
	build = func(i int) {
		if i == len(types) {
			out = append(out, cur.Clone())
			return
		}
		for _, v := range byType[types[i]] {
			cur[i] = v
			build(i + 1)
		}
	}
	build(0)
	return out
}

func (e *refExplorer) bindingPool(known map[instance.Value]bool) []instance.Value {
	seen := make(map[instance.Value]bool)
	var pool []instance.Value
	add := func(v instance.Value) {
		if !seen[v] {
			seen[v] = true
			pool = append(pool, v)
		}
	}
	if e.opts.GroundedOnly {
		vs := make([]instance.Value, 0, len(known))
		for v := range known {
			vs = append(vs, v)
		}
		sortValues(vs)
		for _, v := range vs {
			add(v)
		}
		return pool
	}
	for _, v := range e.opts.Universe.ActiveDomain() {
		add(v)
	}
	for _, v := range e.opts.ExtraBindingValues {
		add(v)
	}
	vs := make([]instance.Value, 0, len(known))
	for v := range known {
		vs = append(vs, v)
	}
	sortValues(vs)
	for _, v := range vs {
		add(v)
	}
	return pool
}

func (e *refExplorer) responses(acc access.Access) [][]instance.Tuple {
	matching := e.opts.Universe.Matching(acc.Method, acc.Binding)
	exact := e.opts.AllExact || (e.opts.ExactMethods != nil && e.opts.ExactMethods[acc.Method.Name()])
	if exact {
		return [][]instance.Tuple{matching}
	}
	if len(matching) > e.opts.MaxResponseChoices {
		matching = matching[:e.opts.MaxResponseChoices]
		e.respCapped = true
	}
	n := len(matching)
	out := make([][]instance.Tuple, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		var resp []instance.Tuple
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				resp = append(resp, matching[i])
			}
		}
		out = append(out, resp)
	}
	return out
}

// visitRecord is one golden-trace entry: the rendered path and the
// canonical configuration fingerprint at the visit.
type visitRecord struct {
	path string
	conf string
}

// equivCase is one cell of the option grid.
type equivCase struct {
	name string
	opts Options
}

func equivalenceGrid(t *testing.T, s *schema.Schema) []equivCase {
	t.Helper()
	u := tinyUniverse(t, s)
	// A universe with a 3-way fan-out so MaxResponseChoices caps fire.
	wide := instance.NewInstance(s)
	wide.MustAdd("R", instance.Int(1))
	wide.MustAdd("S", instance.Int(1), instance.Int(2))
	wide.MustAdd("S", instance.Int(1), instance.Int(3))
	wide.MustAdd("S", instance.Int(1), instance.Int(4))
	seed := instance.NewInstance(s)
	seed.MustAdd("R", instance.Int(1))
	return []equivCase{
		{"plain/depth=2", Options{Universe: u, MaxDepth: 2}},
		{"plain/depth=3", Options{Universe: u, MaxDepth: 3}},
		{"grounded", Options{Universe: u, MaxDepth: 3, GroundedOnly: true, Initial: seed}},
		{"grounded/no-seed", Options{Universe: u, MaxDepth: 2, GroundedOnly: true}},
		{"idempotent", Options{Universe: u, MaxDepth: 3, IdempotentOnly: true}},
		{"idempotent/grounded", Options{Universe: u, MaxDepth: 3, IdempotentOnly: true, GroundedOnly: true, Initial: seed}},
		{"all-exact", Options{Universe: u, MaxDepth: 3, AllExact: true}},
		{"exact-subset", Options{Universe: u, MaxDepth: 2, ExactMethods: map[string]bool{"mR": true}}},
		{"resp-capped", Options{Universe: wide, MaxDepth: 2, MaxResponseChoices: 2}},
		{"resp-choices=1", Options{Universe: wide, MaxDepth: 2, MaxResponseChoices: 1}},
		{"paths-capped", Options{Universe: u, MaxDepth: 3, MaxPaths: 25}},
		{"initial", Options{Universe: u, MaxDepth: 2, Initial: seed}},
		{"extra-bindings", Options{Universe: u, MaxDepth: 2,
			ExtraBindingValues: []instance.Value{instance.Int(99), instance.Str("zz")}}},
		{"grounded/extra-ignored", Options{Universe: u, MaxDepth: 2, GroundedOnly: true, Initial: seed,
			ExtraBindingValues: []instance.Value{instance.Int(99)}}},
		{"everything", Options{Universe: wide, MaxDepth: 3, IdempotentOnly: true,
			ExactMethods: map[string]bool{"mS": true}, MaxResponseChoices: 2, MaxPaths: 40, Initial: seed}},
	}
}

// TestExploreMatchesReferenceSemantics walks the option grid and demands a
// bit-for-bit identical visit trace and Report from the mutate-and-undo
// core and the clone-per-child reference.
func TestExploreMatchesReferenceSemantics(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		t.Run(c.name, func(t *testing.T) {
			var want []visitRecord
			wantRep, err := refExplore(s, c.opts, func(p *access.Path, conf *instance.Instance) (bool, error) {
				want = append(want, visitRecord{path: p.String(), conf: conf.Fingerprint()})
				return true, nil
			})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			var got []visitRecord
			// confByDepth tracks the configuration fingerprint per prefix
			// depth, to check the visitor's pre argument is exactly the
			// parent configuration. hashOf cross-checks the incremental
			// Hash against the canonical fingerprint on live, heavily
			// mutated-and-undone explorer state.
			confByDepth := []string{}
			hashOf := map[string]instance.Hash{}
			checkHash := func(in *instance.Instance) {
				fp, h := in.Fingerprint(), in.Hash()
				if prev, ok := hashOf[fp]; ok && prev != h {
					t.Fatalf("incremental hash diverged for config %q: %+v vs %+v", fp, prev, h)
				}
				hashOf[fp] = h
			}
			gotRep, err := Explore(s, c.opts, func(p *access.Path, pre, conf *instance.Instance) (bool, error) {
				got = append(got, visitRecord{path: p.String(), conf: conf.Fingerprint()})
				d := p.Len()
				confByDepth = confByDepth[:d]
				if d == 0 {
					if pre.Fingerprint() != conf.Fingerprint() {
						t.Errorf("root: pre %q != conf %q", pre.Fingerprint(), conf.Fingerprint())
					}
				} else if pf := pre.Fingerprint(); pf != confByDepth[d-1] {
					t.Errorf("path %s: pre %q is not the parent configuration %q", p, pf, confByDepth[d-1])
				}
				checkHash(pre)
				checkHash(conf)
				confByDepth = append(confByDepth, conf.Fingerprint())
				return true, nil
			})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if !sameReportCore(wantRep, gotRep) {
				t.Errorf("report mismatch: reference %+v, explore %+v", wantRep, gotRep)
			}
			if len(want) != len(got) {
				t.Fatalf("visit counts differ: reference %d, explore %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("visit %d differs:\nreference: %+v\nexplore:   %+v", i, want[i], got[i])
				}
			}
		})
	}
}

// sameReportCore compares the engine-independent Report fields. The
// sharded engine additionally reports per-shard completion
// (CompletedShards/TotalShards), which the serial reference never
// produces, so report equivalence across engines is over the scalar core.
func sameReportCore(a, b Report) bool {
	return a.Paths == b.Paths && a.PathsCapped == b.PathsCapped && a.ResponsesCapped == b.ResponsesCapped
}

// TestExploreMatchesReferenceUnderPruning repeats the comparison with a
// visitor that prunes every other expansion: undo bookkeeping must stay
// consistent when subtrees are cut mid-walk.
func TestExploreMatchesReferenceUnderPruning(t *testing.T) {
	s := tinySchema(t)
	for _, c := range equivalenceGrid(t, s) {
		t.Run(c.name, func(t *testing.T) {
			var want []visitRecord
			n := 0
			wantRep, err := refExplore(s, c.opts, func(p *access.Path, conf *instance.Instance) (bool, error) {
				want = append(want, visitRecord{path: p.String(), conf: conf.Fingerprint()})
				n++
				return n%2 == 1, nil
			})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			var got []visitRecord
			m := 0
			gotRep, err := Explore(s, c.opts, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
				got = append(got, visitRecord{path: p.String(), conf: conf.Fingerprint()})
				m++
				return m%2 == 1, nil
			})
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			if !sameReportCore(wantRep, gotRep) {
				t.Errorf("report mismatch: reference %+v, explore %+v", wantRep, gotRep)
			}
			if len(want) != len(got) {
				t.Fatalf("visit counts differ: reference %d, explore %d", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("visit %d differs:\nreference: %+v\nexplore:   %+v", i, want[i], got[i])
				}
			}
		})
	}
}

// TestExploreWitnessSurvivesBacktrack pins the retain-by-clone contract: a
// path clone taken mid-walk must stay intact after the explorer has
// backtracked through (and recycled the buffers of) the cloned prefix.
func TestExploreWitnessSurvivesBacktrack(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	type snap struct {
		clone    *access.Path
		rendered string
		conf     *instance.Instance
		confFP   string
	}
	var snaps []snap
	_, err := Explore(s, Options{Universe: u, MaxDepth: 2}, func(p *access.Path, _, conf *instance.Instance) (bool, error) {
		if p.Len() == 2 && len(snaps) < 5 {
			snaps = append(snaps, snap{clone: p.Clone(), rendered: p.String(), conf: conf.Clone(), confFP: conf.Fingerprint()})
		}
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no depth-2 paths snapshotted")
	}
	for i, sn := range snaps {
		if got := sn.clone.String(); got != sn.rendered {
			t.Errorf("snapshot %d: clone mutated after backtrack:\nat visit: %s\nafter:    %s", i, sn.rendered, got)
		}
		if got := sn.conf.Fingerprint(); got != sn.confFP {
			t.Errorf("snapshot %d: config clone mutated after backtrack", i)
		}
		// The clone must also still be a well-formed path: its final config
		// is derivable and contained in the universe.
		conf, err := sn.clone.FinalConfig(nil)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !u.Contains(conf) {
			t.Errorf("snapshot %d: cloned path's config escaped the universe", i)
		}
	}
}

// TestExploreMatchesReferenceMultiInput repeats the reference comparison on
// a schema with a two-input and a zero-input method (the grid's schema has
// one-input methods only), so the order of a multi-input binding product
// is pinned against the reference's nested loop. Visit order is what
// Explore and Successors expose; the sorted shard partition cannot show it.
func TestExploreMatchesReferenceMultiInput(t *testing.T) {
	s, base := escapePlanFixture(t)
	seed := instance.NewInstance(s)
	seed.MustAdd("E", instance.Str("a"), instance.Int(9))
	for name, o := range map[string]Options{
		"plain":    base,
		"grounded": {Universe: base.Universe, MaxDepth: 2, GroundedOnly: true, Initial: seed},
	} {
		t.Run(name, func(t *testing.T) {
			var want, got []string
			wantRep, err := refExplore(s, o, func(p *access.Path, _ *instance.Instance) (bool, error) {
				want = append(want, p.String())
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			gotRep, err := Explore(s, o, func(p *access.Path, _, _ *instance.Instance) (bool, error) {
				got = append(got, p.String())
				return true, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sameReportCore(wantRep, gotRep) {
				t.Errorf("report mismatch: reference %+v, explore %+v", wantRep, gotRep)
			}
			if !slices.Equal(want, got) {
				t.Errorf("visit traces differ (%d reference visits, %d explore visits)", len(want), len(got))
			}
		})
	}
}
