package core

import (
	"repro/internal/anf"
	"repro/internal/proof"
)

// Propagator runs ANF propagation (§II-A): value assignments from unit and
// monomial-plus-one polynomials, equivalence assignments from x ⊕ y and
// x ⊕ y ⊕ 1, applied through the master system's occurrence lists until a
// fixed point.
type Propagator struct {
	Sys   *anf.System
	State *VarState
	// Contradiction is set when 1 = 0 is derived; the system is UNSAT.
	Contradiction bool
	// prov, when non-nil, records the provenance of every binding and
	// rewrite into a ledger. All prov hooks are behind nil checks so the
	// tracking-off path is unchanged.
	prov *provTracker
}

// NewPropagator wraps a system with fresh state.
func NewPropagator(sys *anf.System) *Propagator {
	return &Propagator{Sys: sys, State: NewVarState(sys.NumVars())}
}

// Propagate runs to fixed point over the whole system. It returns the
// number of new facts (value or equivalence assignments) derived, and
// false if a contradiction was found.
func (p *Propagator) Propagate() (int, bool) {
	queue := make([]int, 0, p.Sys.RawLen())
	inQueue := make([]bool, p.Sys.RawLen())
	push := func(i int) {
		if i < len(inQueue) && !inQueue[i] {
			inQueue[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < p.Sys.RawLen(); i++ {
		push(i)
	}
	facts := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		n, affected, ok := p.step(i)
		if !ok {
			p.Contradiction = true
			return facts, false
		}
		facts += n
		for _, v := range affected {
			for _, j := range p.Sys.Occurrences(v) {
				push(j)
			}
		}
	}
	return facts, true
}

// step normalizes equation slot i and extracts any immediate facts. It
// returns the number of facts, the variables whose bindings changed, and
// false on contradiction.
func (p *Propagator) step(i int) (int, []anf.Var, bool) {
	q := p.Sys.At(i)
	if q.IsZero() {
		return 0, nil, true
	}
	p.State.Grow(p.Sys.NumVars())
	orig := q
	var wit []proof.Term
	if p.prov != nil {
		q, wit = p.prov.normalize(p.State, q)
	} else {
		q = p.State.NormalizePoly(q)
	}
	if q.IsZero() {
		p.Sys.Replace(i, anf.Zero())
		if p.prov != nil {
			p.prov.slotRec[i] = -1
		}
		return 0, nil, true
	}
	// recQ backs the slot's normalized content in the ledger; a rewrite
	// record is appended when normalization changed the polynomial, so the
	// bindings below (and the 1 = 0 contradiction) carry exact witnesses.
	recQ := -1
	if p.prov != nil {
		recQ = p.prov.slotRecord(i, orig, q, wit)
	}
	if q.IsOne() {
		return 0, nil, false
	}
	zeroSlot := func() {
		p.Sys.Replace(i, anf.Zero())
		if p.prov != nil {
			p.prov.slotRec[i] = -1
		}
	}
	facts := 0
	var affected []anf.Var
	switch {
	case q.NumTerms() == 1 && q.Deg() == 1:
		// Polynomial x: x = 0.
		v := q.Lead().Vars()[0]
		if !p.State.SetValue(v, false) {
			return 0, nil, false
		}
		if p.prov != nil {
			p.prov.noteValue(v, false, recQ)
		}
		facts++
		affected = append(affected, v)
		zeroSlot()
	case q.NumTerms() == 2 && q.Deg() == 1 && q.HasConstant():
		// Polynomial x ⊕ 1: x = 1.
		v := q.Lead().Vars()[0]
		if !p.State.SetValue(v, true) {
			return 0, nil, false
		}
		if p.prov != nil {
			p.prov.noteValue(v, true, recQ)
		}
		facts++
		affected = append(affected, v)
		zeroSlot()
	case q.IsMonomialPlusOne():
		// x·y·…·z ⊕ 1: every factor is 1.
		for _, v := range q.Lead().Vars() {
			if !p.State.SetValue(v, true) {
				return 0, nil, false
			}
			if p.prov != nil {
				p.prov.noteFactor(v, recQ)
			}
			facts++
			affected = append(affected, v)
		}
		zeroSlot()
	case q.Deg() == 1 && q.NumTerms() == 2 && !q.HasConstant():
		// x ⊕ y: x = y.
		vs := q.LinearVars()
		changed, ok := p.State.Merge(vs[0], vs[1], false)
		if !ok {
			return 0, nil, false
		}
		if changed {
			if p.prov != nil {
				p.prov.noteMerge(vs[0], vs[1], false, recQ)
			}
			facts++
			affected = append(affected, vs[0], vs[1])
		}
		zeroSlot()
	case q.Deg() == 1 && q.NumTerms() == 3 && q.HasConstant():
		// x ⊕ y ⊕ 1: x = ¬y.
		vs := q.LinearVars()
		changed, ok := p.State.Merge(vs[0], vs[1], true)
		if !ok {
			return 0, nil, false
		}
		if changed {
			if p.prov != nil {
				p.prov.noteMerge(vs[0], vs[1], true, recQ)
			}
			facts++
			affected = append(affected, vs[0], vs[1])
		}
		zeroSlot()
	default:
		p.Sys.Replace(i, q)
	}
	return facts, affected, true
}

// AddFact adds a learnt polynomial to the master system unless an equal
// one is already present (after normalization). It reports whether the
// fact was new.
func (p *Propagator) AddFact(f anf.Poly) bool {
	return p.addFact(f, nil, "")
}

// addFact is AddFact carrying a provenance witness (in ledger record
// terms) and note for the appended record.
func (p *Propagator) addFact(f anf.Poly, base []proof.Term, note string) bool {
	p.State.Grow(p.Sys.NumVars())
	if mv, ok := f.MaxVar(); ok {
		p.State.Grow(int(mv) + 1)
	}
	var q anf.Poly
	var wit []proof.Term
	if p.prov != nil {
		q, wit = p.prov.normalize(p.State, f)
	} else {
		q = p.State.NormalizePoly(f)
	}
	record := func() {
		if p.prov == nil {
			return
		}
		terms := make([]proof.Term, 0, len(base)+len(wit))
		terms = append(terms, base...)
		terms = append(terms, wit...)
		p.prov.slotRec = append(p.prov.slotRec, p.prov.append(q, terms, note))
	}
	if q.IsZero() {
		return false
	}
	if q.IsOne() {
		p.Contradiction = true
		p.Sys.Add(q)
		record()
		return true
	}
	if p.Sys.Contains(q) {
		return false
	}
	p.Sys.Add(q)
	record()
	return true
}

// AddFacts adds a batch, returning how many were new, and propagates to a
// fixed point afterwards (the paper applies ANF propagation whenever
// learnt facts are produced).
func (p *Propagator) AddFacts(fs []anf.Poly) (int, bool) {
	added := 0
	for _, f := range fs {
		if p.AddFact(f) {
			added++
		}
		if p.Contradiction {
			return added, false
		}
	}
	if added > 0 {
		if _, ok := p.Propagate(); !ok {
			return added, false
		}
	}
	return added, true
}

// newSink returns a fresh witness sink for one technique run when
// provenance tracking is on, nil otherwise.
func (p *Propagator) newSink() *witnessSink {
	if p.prov == nil {
		return nil
	}
	return &witnessSink{}
}

// addBatch merges one technique run's facts. Without provenance tracking
// it is AddFacts. With it, the facts come from sink, the run's newSink:
// each SlotTerm is resolved to the ledger record backing that slot (via
// snap, a slot→record snapshot taken when the producing technique ran, or
// the current mapping when snap is nil), the records are stamped with the
// technique label and iteration, and the system propagates to a fixed
// point afterwards.
func (p *Propagator) addBatch(facts []anf.Poly, sink *witnessSink, technique string, iter int, snap []int) (int, bool) {
	if p.prov == nil {
		return p.AddFacts(facts)
	}
	if snap == nil {
		snap = p.prov.slotRec
	}
	added := 0
	for _, f := range sink.facts {
		p.prov.setPhase(technique, iter)
		var base []proof.Term
		for _, t := range f.Witness {
			src := -1
			if t.Slot >= 0 && t.Slot < len(snap) {
				src = snap[t.Slot]
			}
			base = append(base, proof.Term{Mult: t.Mult, Src: src})
		}
		if p.addFact(f.Poly, base, f.Note) {
			added++
		}
		if p.Contradiction {
			return added, false
		}
	}
	p.prov.setPhase(proof.TechPropagation, iter)
	if added > 0 {
		if _, ok := p.Propagate(); !ok {
			return added, false
		}
	}
	return added, true
}

// provSnapshot returns a copy of the current slot→ledger-record mapping
// (nil without provenance tracking) — taken before a merge sequence so
// witnesses computed against a system snapshot resolve to the records that
// described it.
func (p *Propagator) provSnapshot() []int {
	if p.prov == nil {
		return nil
	}
	return append([]int(nil), p.prov.slotRec...)
}
