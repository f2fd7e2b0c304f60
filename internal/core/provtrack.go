package core

import (
	"fmt"
	"sort"

	"repro/internal/anf"
	"repro/internal/proof"
)

// SlotTerm is one summand of a technique-level witness, expressed against
// the system the technique ran on: Mult · (the polynomial in equation slot
// Slot). A negative Slot marks an unattributable source. The propagator
// translates slots into ledger record IDs when the fact batch is merged.
type SlotTerm struct {
	Mult anf.Poly
	Slot int
}

// ProvFact is a learnt fact together with its algebraic witness: the claim
// Poly = Σ Witness[i].Mult · slotPoly(Witness[i].Slot) in the Boolean
// ring. A nil Witness means the producer could not track the derivation
// (SAT-learnt facts, for example); verification then falls back to
// refutation.
type ProvFact struct {
	Poly    anf.Poly
	Witness []SlotTerm
	Note    string
}

// witnessSink collects the ProvFacts of one technique run, in fact order.
// XL and ElimLin record each fact with its witness; techniques that cannot
// track a derivation (extra techniques, the Gröbner phase, SAT harvests)
// record it witness-less. Provenance-off runs pass a nil sink, on which
// every method is a no-op.
type witnessSink struct {
	facts []ProvFact
}

// add records fact p with witness w.
func (s *witnessSink) add(p anf.Poly, w []SlotTerm, note string) {
	if s != nil {
		s.facts = append(s.facts, ProvFact{Poly: p, Witness: w, Note: note})
	}
}

// addPlain records witness-less facts.
func (s *witnessSink) addPlain(facts []anf.Poly, note string) {
	for _, f := range facts {
		s.add(f, nil, note)
	}
}

// provEq is one link of the provenance-side equivalence forest: the ledger
// record rec justifies v ⊕ next ⊕ neg = 0.
type provEq struct {
	next anf.Var
	neg  bool
	rec  int
}

// provVal records the ledger record justifying v ⊕ b = 0.
type provVal struct {
	b   bool
	rec int
}

// provTracker maintains, alongside the propagator, enough bookkeeping to
// express every learnt fact as an exact polynomial combination of earlier
// ledger records:
//
//   - slotRec[i] is the ledger record whose polynomial equals the current
//     content of system slot i (-1 once the slot is zeroed);
//   - eq mirrors the VarState equivalence forest with one ledger record per
//     merge, lazily path-compressed by composing link records;
//   - val maps determined variables to records for v ⊕ value.
//
// The tracker is only ever touched from the propagator's (sequential)
// merge path; technique runs compute SlotTerm witnesses independently.
type provTracker struct {
	ledger  *proof.Ledger
	slotRec []int
	eq      map[anf.Var]provEq
	val     map[anf.Var]provVal
	tech    string
	iter    int
}

// newProvTracker seeds the ledger with the system's equations and aligns
// slot records. Fresh systems have no zeroed slots (Add skips the zero
// polynomial), so slot i is input record i; the guard keeps the mapping
// right even for a caller that hands in a partially propagated system.
func newProvTracker(sys *anf.System) *provTracker {
	pt := &provTracker{
		ledger: proof.NewLedger(sys),
		eq:     map[anf.Var]provEq{},
		val:    map[anf.Var]provVal{},
		tech:   proof.TechPropagation,
	}
	n := 0
	for i := 0; i < sys.RawLen(); i++ {
		if sys.At(i).IsZero() {
			pt.slotRec = append(pt.slotRec, -1)
		} else {
			pt.slotRec = append(pt.slotRec, n)
			n++
		}
	}
	return pt
}

// setPhase stamps subsequently appended records with a technique label and
// loop iteration.
func (pt *provTracker) setPhase(tech string, iter int) {
	pt.tech = tech
	pt.iter = iter
}

func (pt *provTracker) append(p anf.Poly, w []proof.Term, note string) int {
	return pt.ledger.Append(proof.Record{
		Technique: pt.tech,
		Iteration: pt.iter,
		Poly:      p,
		Witness:   w,
		Note:      note,
	})
}

// cofactor returns A = Σ_{t ∈ p, v ∈ t} t.Without(v): the polynomial with
// p = A·v ⊕ B where B collects the terms free of v. Substituting v := r in
// p yields p ⊕ A·(v ⊕ r) — the identity every substitution witness leans
// on.
func cofactor(p anf.Poly, v anf.Var) anf.Poly {
	var ts []anf.Monomial
	for _, t := range p.Terms() {
		if t.Contains(v) {
			ts = append(ts, t.Without(v))
		}
	}
	return anf.FromMonomials(ts...)
}

// bindingEq returns (root, neg, rec) with rec the ledger record justifying
// v ⊕ root ⊕ neg = 0, composing (and caching) the chain of merge records
// from v to its current representative. rec is -1 when v has no recorded
// chain.
func (pt *provTracker) bindingEq(v anf.Var) (anf.Var, bool, int) {
	e, ok := pt.eq[v]
	if !ok {
		return v, false, -1
	}
	root, neg, rec := e.next, e.neg, e.rec
	var chain []proof.Term
	for {
		e2, ok := pt.eq[root]
		if !ok {
			break
		}
		if len(chain) == 0 {
			chain = append(chain, proof.Term{Mult: anf.OnePoly(), Src: rec})
		}
		chain = append(chain, proof.Term{Mult: anf.OnePoly(), Src: e2.rec})
		root, neg = e2.next, neg != e2.neg
	}
	if len(chain) > 0 {
		p := anf.VarPoly(v).Add(anf.VarPoly(root)).AddConstant(neg)
		rec = pt.append(p, chain, "equivalence chain")
		pt.eq[v] = provEq{next: root, neg: neg, rec: rec}
	}
	return root, neg, rec
}

// bindingVal returns (b, rec) with rec the ledger record justifying
// v ⊕ b = 0, composing the equivalence chain with the root's value record
// when needed. rec is -1 when the value cannot be attributed.
func (pt *provTracker) bindingVal(v anf.Var) (bool, int) {
	if pv, ok := pt.val[v]; ok {
		return pv.b, pv.rec
	}
	root, neg, erec := pt.bindingEq(v)
	rv, ok := pt.val[root]
	if !ok || erec < 0 {
		return false, -1
	}
	b := rv.b != neg
	rec := pt.append(anf.VarPoly(v).AddConstant(b),
		[]proof.Term{{Mult: anf.OnePoly(), Src: erec}, {Mult: anf.OnePoly(), Src: rv.rec}},
		"value through equivalence")
	pt.val[v] = provVal{b: b, rec: rec}
	return b, rec
}

// normalize returns the same polynomial as VarState.NormalizePoly, but
// substitutes one bound variable at a time (the canonical form is unique,
// so the order does not change the result) to record witness terms for
// each substitution: the result satisfies
// q = p ⊕ Σ Mult·record(Src).Poly. Terms with Src -1 mark substitutions
// whose binding record could not be attributed.
func (pt *provTracker) normalize(st *VarState, p anf.Poly) (anf.Poly, []proof.Term) {
	var terms []proof.Term
	for _, v := range p.Vars() {
		if int(v) >= st.NumVars() {
			continue
		}
		if val, ok := st.Value(v); ok {
			a := cofactor(p, v)
			p = p.SubstituteConst(v, val)
			if a.IsZero() {
				continue
			}
			_, rec := pt.bindingVal(v)
			terms = append(terms, proof.Term{Mult: a, Src: rec})
			continue
		}
		r := st.Find(v)
		if r.V != v {
			a := cofactor(p, v)
			p = p.SubstituteVar(v, r.Poly())
			if a.IsZero() {
				continue
			}
			_, _, rec := pt.bindingEq(v)
			terms = append(terms, proof.Term{Mult: a, Src: rec})
		}
	}
	return p, terms
}

// slotRecord returns the ledger record backing slot i's normalized content
// q, appending a rewrite record (old content ⊕ substitution witness) when
// normalization changed the slot.
func (pt *provTracker) slotRecord(i int, orig, q anf.Poly, wit []proof.Term) int {
	old := pt.slotRec[i]
	if q.Equal(orig) && old >= 0 {
		return old
	}
	terms := make([]proof.Term, 0, len(wit)+1)
	terms = append(terms, proof.Term{Mult: anf.OnePoly(), Src: old})
	terms = append(terms, wit...)
	rec := pt.append(q, terms, fmt.Sprintf("normalized slot %d", i))
	pt.slotRec[i] = rec
	return rec
}

// noteValue records the binding v = b extracted from the slot record rec
// (whose polynomial is exactly v ⊕ b).
func (pt *provTracker) noteValue(v anf.Var, b bool, rec int) {
	pt.val[v] = provVal{b: b, rec: rec}
}

// noteFactor records v = 1 extracted from a monomial-plus-one record rec
// with v a factor of the monomial, via (v⊕1) = (v⊕1)·(m⊕1).
func (pt *provTracker) noteFactor(v anf.Var, rec int) {
	vp := anf.VarPoly(v).AddConstant(true)
	fr := pt.append(vp, []proof.Term{{Mult: vp, Src: rec}}, "factor of monomial+1")
	pt.val[v] = provVal{b: true, rec: fr}
}

// noteMerge records the equivalence x = y ⊕ neg extracted from record rec
// (polynomial x ⊕ y ⊕ neg, both variables free roots at merge time). The
// larger variable is the one absorbed, mirroring VarState.Merge.
func (pt *provTracker) noteMerge(x, y anf.Var, neg bool, rec int) {
	hi, lo := x, y
	if hi < lo {
		hi, lo = lo, hi
	}
	pt.eq[hi] = provEq{next: lo, neg: neg, rec: rec}
}

// canonSlotTerms sorts witness terms by slot, merges duplicates by adding
// their multipliers, and drops cancelled entries — keeping technique-side
// witnesses small and deterministic.
func canonSlotTerms(ts []SlotTerm) []SlotTerm {
	if len(ts) <= 1 {
		return ts
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Slot < ts[j].Slot })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].Slot == t.Slot {
			out[n-1].Mult = out[n-1].Mult.Add(t.Mult)
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if !t.Mult.IsZero() {
			kept = append(kept, t)
		}
	}
	return kept
}

// scaleSlotTerms returns dst extended with mult·src.
func scaleSlotTerms(dst []SlotTerm, src []SlotTerm, mult anf.Poly) []SlotTerm {
	for _, t := range src {
		dst = append(dst, SlotTerm{Mult: mult.Mul(t.Mult), Slot: t.Slot})
	}
	return dst
}
