package core

import (
	"math/rand"
	"testing"

	"repro/internal/anf"
)

// naiveState is a brute-force reference for VarState: it stores the full
// constraint set and recomputes consequences by enumeration.
type naiveState struct {
	n      int
	merges [][3]int // x, y, neg
	values [][2]int // var, value — a list so conflicting demands persist
}

func (ns *naiveState) consistentAssignments() [][]bool {
	var out [][]bool
	for mask := 0; mask < 1<<uint(ns.n); mask++ {
		ok := true
		for _, vc := range ns.values {
			if mask>>uint(vc[0])&1 == 1 != (vc[1] == 1) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, m := range ns.merges {
			x := mask>>uint(m[0])&1 == 1
			y := mask>>uint(m[1])&1 == 1
			if (x != y) != (m[2] == 1) {
				ok = false
				break
			}
		}
		if ok {
			assign := make([]bool, ns.n)
			for v := 0; v < ns.n; v++ {
				assign[v] = mask>>uint(v)&1 == 1
			}
			out = append(out, assign)
		}
	}
	return out
}

// TestQuickVarStateVsNaive drives VarState with random merge/value
// operations and cross-checks determinedness and values against the
// enumeration reference.
func TestQuickVarStateVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(6)
		st := NewVarState(n)
		ns := &naiveState{n: n}
		contradicted := false
		for op := 0; op < 2+rng.Intn(8) && !contradicted; op++ {
			if rng.Intn(3) == 0 {
				v := rng.Intn(n)
				b := rng.Intn(2) == 1
				ok := st.SetValue(anf.Var(v), b)
				val := 0
				if b {
					val = 1
				}
				ns.values = append(ns.values, [2]int{v, val})
				if !ok {
					contradicted = true
				}
			} else {
				x, y := rng.Intn(n), rng.Intn(n)
				neg := rng.Intn(2)
				_, ok := st.Merge(anf.Var(x), anf.Var(y), neg == 1)
				ns.merges = append(ns.merges, [3]int{x, y, neg})
				if !ok {
					contradicted = true
				}
			}
		}
		sols := ns.consistentAssignments()
		if contradicted {
			if len(sols) != 0 {
				t.Fatalf("trial %d: VarState contradicted but reference has %d solutions", trial, len(sols))
			}
			continue
		}
		if len(sols) == 0 {
			t.Fatalf("trial %d: reference inconsistent but VarState accepted everything", trial)
		}
		// Every value VarState reports as determined must be constant
		// across all reference solutions and match.
		for v := 0; v < n; v++ {
			if b, ok := st.Value(anf.Var(v)); ok {
				for _, sol := range sols {
					if sol[v] != b {
						t.Fatalf("trial %d: VarState says x%d=%v but a reference solution disagrees", trial, v, b)
					}
				}
			}
		}
		// Every equivalence must hold in all reference solutions.
		for v, r := range st.Equivalences() {
			for _, sol := range sols {
				if sol[v] != (sol[r.V] != r.Neg) {
					t.Fatalf("trial %d: equivalence x%d = %v violated by reference", trial, v, r)
				}
			}
		}
	}
}

func TestVarStateGrowAndFactPolys(t *testing.T) {
	st := NewVarState(2)
	st.Grow(5)
	if st.NumVars() != 5 {
		t.Fatalf("NumVars = %d", st.NumVars())
	}
	st.SetValue(4, true)
	st.Merge(2, 3, true)
	facts := st.FactPolys()
	// x4 ⊕ 1 and x3 = ¬x2 (root is the smaller var).
	want := map[string]bool{"x4 + 1": false, "x2 + x3 + 1": false}
	for _, f := range facts {
		if _, ok := want[f.String()]; ok {
			want[f.String()] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Fatalf("fact %q missing from %v", s, facts)
		}
	}
	if st.String() == "" {
		t.Fatal("empty state description")
	}
}

// normalizePolyOracle is the per-variable NormalizePoly the one-pass
// rewrite replaced: one SubstituteConst or SubstituteVar per bound
// variable, in variable order.
func normalizePolyOracle(s *VarState, p anf.Poly) anf.Poly {
	for _, v := range p.Vars() {
		if int(v) >= len(s.val) {
			continue
		}
		if val, ok := s.Value(v); ok {
			p = p.SubstituteConst(v, val)
			continue
		}
		r := s.Find(v)
		if r.V != v {
			p = p.SubstituteVar(v, r.Poly())
		}
	}
	return p
}

// TestNormalizePolyMatchesPerVariable checks the one-pass NormalizePoly
// against the per-variable oracle on random states and polynomials,
// including variables beyond the state (left alone) and states where
// several variables share a root with opposite signs (x·(x ⊕ 1) = 0).
func TestNormalizePolyMatchesPerVariable(t *testing.T) {
	s := NewVarState(4)
	s.Merge(1, 0, false)
	s.Merge(2, 0, true)
	p, err := anf.ParsePoly("x1*x2 + x1*x3 + x3")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NormalizePoly(p); got.String() != "x0*x3 + x3" {
		t.Fatalf("x1 = x0, x2 = x0 + 1: NormalizePoly(%v) = %v, want x0*x3 + x3", p, got)
	}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		s := NewVarState(n)
		for k := rng.Intn(n); k > 0; k-- {
			x, y := anf.Var(rng.Intn(n)), anf.Var(rng.Intn(n))
			if rng.Intn(3) == 0 {
				s.SetValue(x, rng.Intn(2) == 1)
			} else {
				s.Merge(x, y, rng.Intn(2) == 1)
			}
		}
		var ms []anf.Monomial
		for k := rng.Intn(8); k > 0; k-- {
			vs := make([]anf.Var, rng.Intn(5))
			for j := range vs {
				vs[j] = anf.Var(rng.Intn(n + 2))
			}
			ms = append(ms, anf.NewMonomial(vs...))
		}
		p := anf.FromMonomials(ms...)
		got, want := s.NormalizePoly(p), normalizePolyOracle(s, p)
		if !got.Equal(want) {
			t.Fatalf("trial %d: NormalizePoly(%v) = %v, per-variable gives %v", trial, p, got, want)
		}
	}
}
