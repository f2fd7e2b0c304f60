package core

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/anf"
)

// ElimLinConfig parameterizes ElimLin (§II-C).
type ElimLinConfig struct {
	// M bounds the linearized size of the subsampled system, as in XL.
	M int
	// MaxRounds caps the GJE–substitute iterations (a safety valve; the
	// algorithm terminates when no linear equations remain).
	MaxRounds int
	// Context, when non-nil, cancels the run: RunElimLin polls it at every
	// GJE–substitute round boundary and returns the facts learnt so far.
	// A nil Context never cancels.
	Context context.Context
	// Rand drives the subsampling.
	Rand *rand.Rand
}

// DefaultElimLinConfig mirrors the paper's settings with the scaled M.
func DefaultElimLinConfig(rng *rand.Rand) ElimLinConfig {
	return ElimLinConfig{M: 20, MaxRounds: 64, Rand: rng}
}

// RunElimLin performs the ElimLin algorithm on a random subset of the
// system and returns the linear equations learnt across all rounds. The
// input system is not modified; substitutions happen on a working copy.
func RunElimLin(sys *anf.System, cfg ElimLinConfig) []anf.Poly {
	return runElimLin(sys, cfg, nil)
}

// runElimLin is RunElimLin with an optional witness sink. With a non-nil
// sink every learnt linear equation is also recorded with its witness.
// Witnesses thread through the rounds: a reduced row combines the working
// polynomials' witnesses per the elimination's ops block, and
// substituting v := l ⊕ v into p rewrites p to p ⊕ A·l (A the cofactor of
// v in p), so the working witness gains A-scaled copies of l's witness. A
// nil sink does no witness work at all.
func runElimLin(sys *anf.System, cfg ElimLinConfig, sink *witnessSink) []anf.Poly {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 64
	}
	idxs := subsampleIdx(sys, cfg.M, cfg.Rand)
	if len(idxs) == 0 {
		return nil
	}
	all := sys.Polys()
	work := make([]anf.Poly, len(idxs))
	for i, idx := range idxs {
		work[i] = all[idx]
	}
	var wits [][]SlotTerm // witness of each work polynomial; tracked runs only
	if sink != nil {
		for _, slot := range sampledSlots(sys, idxs) {
			wits = append(wits, []SlotTerm{{Mult: anf.OnePoly(), Slot: slot}})
		}
	}
	var idx occIndex
	var learnt []anf.Poly
	for round := 0; round < cfg.MaxRounds; round++ {
		// A cancelled run returns what it has: learnt facts are valid the
		// moment the GJE round that produced them finishes, so partial
		// results are still sound to propagate.
		if ctxCanceled(cfg.Context) {
			return learnt
		}
		// Step (1): GJE on the linearization.
		reduced, ops := gjeRows(work, sink != nil)
		// Step (2): gather the linear equations.
		var linear, rest []anf.Poly
		var linWits, restWits [][]SlotTerm
		for r, p := range reduced {
			if p.IsZero() {
				continue
			}
			isLinear := p.IsLinear()
			if isLinear {
				linear = append(linear, p)
			} else {
				rest = append(rest, p)
			}
			if sink != nil {
				var w []SlotTerm
				ops.each(r, func(j int) { w = append(w, wits[j]...) })
				if isLinear {
					linWits = append(linWits, canonSlotTerms(w))
				} else {
					restWits = append(restWits, canonSlotTerms(w))
				}
			}
		}
		if len(linear) == 0 {
			break
		}
		learnt = append(learnt, linear...)
		for i, w := range linWits {
			sink.add(linear[i], w, "gje row")
		}
		// Step (3): use each linear equation to eliminate one variable —
		// the variable occurring in the fewest remaining equations, as
		// counted after the previous equations' substitutions.
		idx.build(rest, linear)
		for li, l := range linear {
			if l.IsOne() {
				// Contradiction: surface it as a learnt fact and stop.
				if sink != nil {
					sink.add(anf.OnePoly(), linWits[li], "gje contradiction")
				}
				return append(learnt, anf.OnePoly())
			}
			vs := l.LinearVars()
			if len(vs) == 0 {
				continue
			}
			v := idx.pick(vs)
			var after func(i int, old anf.Poly)
			if sink != nil {
				after = func(i int, old anf.Poly) {
					restWits[i] = canonSlotTerms(scaleSlotTerms(restWits[i], linWits[li], cofactor(old, v)))
				}
			}
			// Solve l for v: v = l ⊕ v (the rest of the equation).
			idx.substitute(rest, v, l.Add(anf.VarPoly(v)), after)
		}
		work = rest
		wits = restWits
	}
	return learnt
}

// occIndex is ElimLin's occurrence index over one round's nonlinear
// polynomials (rest): per variable, the exact number of rest polynomials
// containing it, and the indices of those polynomials. It is built once
// per GJE round and kept current across the round's substitutions, so a
// pick reads counts in O(|vs|) and a substitution visits only the
// polynomials that contain the eliminated variable.
//
// The index lists are pruned lazily: when a substitution cancels a
// variable out of a polynomial, the count drops at once but the stale
// list entry stays until the list reaches twice its count.
type occIndex struct {
	count []int32     // count[v]: rest polynomials containing v
	occ   [][]int32   // occ[v]: their indices, plus stale entries
	vars  [][]anf.Var // vars[i]: sorted variable set of rest[i]
	mark  []int32     // mark[v] == tick: v already in the set being built
	tick  int32
	set   []anf.Var // scratch for the set being built
}

// build indexes rest. Substitutions draw their right-hand sides from
// linear, so the index covers the variables of both.
func (x *occIndex) build(rest, linear []anf.Poly) {
	n := 0
	for _, ps := range [][]anf.Poly{rest, linear} {
		for _, p := range ps {
			if v, ok := p.MaxVar(); ok && int(v) >= n {
				n = int(v) + 1
			}
		}
	}
	if n > len(x.count) {
		x.count = append(x.count, make([]int32, n-len(x.count))...)
		x.occ = append(x.occ, make([][]int32, n-len(x.occ))...)
		x.mark = append(x.mark, make([]int32, n-len(x.mark))...)
	}
	for v := range x.count {
		x.count[v] = 0
		x.occ[v] = x.occ[v][:0]
	}
	if len(rest) > len(x.vars) {
		x.vars = append(x.vars, make([][]anf.Var, len(rest)-len(x.vars))...)
	}
	for i, p := range rest {
		x.vars[i] = append(x.vars[i][:0], x.varSet(p)...)
		for _, v := range x.vars[i] {
			x.count[v]++
			x.occ[v] = append(x.occ[v], int32(i))
		}
	}
}

// varSet returns the sorted variable set of p in the shared scratch
// buffer, valid until the next call.
func (x *occIndex) varSet(p anf.Poly) []anf.Var {
	x.tick++
	x.set = x.set[:0]
	for _, t := range p.Terms() {
		for _, v := range t.Vars() {
			if x.mark[v] != x.tick {
				x.mark[v] = x.tick
				x.set = append(x.set, v)
			}
		}
	}
	slices.Sort(x.set)
	return x.set
}

// pick returns the variable of vs occurring in the fewest rest
// polynomials, the first in vs on ties (vs is sorted, as LinearVars
// returns it).
func (x *occIndex) pick(vs []anf.Var) anf.Var {
	best := vs[0]
	for _, v := range vs[1:] {
		if x.count[v] < x.count[best] {
			best = v
		}
	}
	return best
}

// substitute rewrites every rest polynomial containing v by v := rhs
// (rhs must not contain v) and updates the index. after, when non-nil, is
// called with each rewritten polynomial's index and its content before
// the rewrite.
func (x *occIndex) substitute(rest []anf.Poly, v anf.Var, rhs anf.Poly, after func(i int, old anf.Poly)) {
	for _, i := range x.occ[v] {
		if _, live := slices.BinarySearch(x.vars[i], v); !live {
			continue // stale entry, or a duplicate already rewritten
		}
		old := rest[i]
		rest[i] = old.SubstituteVar(v, rhs)
		x.update(int(i), rest[i])
		if after != nil {
			after(int(i), old)
		}
	}
	x.occ[v] = x.occ[v][:0]
}

// update replaces rest[i]'s variable set by p's. Substitution can cancel
// variables other than the eliminated one, so the old and new sets are
// diffed: every variable that left loses a count, every variable that
// joined gains a count and an index entry.
func (x *occIndex) update(i int, p anf.Poly) {
	old, cur := x.vars[i], x.varSet(p)
	a, b := 0, 0
	for a < len(old) || b < len(cur) {
		switch {
		case b == len(cur) || (a < len(old) && old[a] < cur[b]):
			x.count[old[a]]--
			a++
		case a == len(old) || cur[b] < old[a]:
			x.count[cur[b]]++
			x.add(cur[b], int32(i))
			b++
		default:
			a++
			b++
		}
	}
	x.vars[i] = append(old[:0], cur...)
}

// add appends i to occ[w], first dropping stale and duplicate entries
// when the list has reached twice its live count (count[w] already
// includes i). Each pruning at least halves the list, so its cost is
// paid for by the appends that grew it.
func (x *occIndex) add(w anf.Var, i int32) {
	list := x.occ[w]
	if len(list) >= 2*int(x.count[w]) {
		slices.Sort(list)
		list = slices.Compact(list)
		live := list[:0]
		for _, j := range list {
			if _, ok := slices.BinarySearch(x.vars[j], w); ok {
				live = append(live, j)
			}
		}
		list = live
	}
	x.occ[w] = append(list, i)
}
