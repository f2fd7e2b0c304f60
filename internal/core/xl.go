package core

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/anf"
	"repro/internal/gf2"
)

// ctxCanceled reports whether a (possibly nil) context has been cancelled
// — the shared interrupt probe of the technique implementations.
func ctxCanceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// XLConfig parameterizes eXtended Linearization (§II-B).
type XLConfig struct {
	// M bounds the linearized size of the subsampled system: rows·cols ≲ 2^M.
	M int
	// DeltaM bounds the expansion: the expanded system stays ≲ 2^(M+DeltaM).
	DeltaM int
	// Deg is D, the maximum degree of the multiplier monomials (the paper
	// runs with D = 1: multiply by 1 and by each single variable).
	Deg int
	// Context, when non-nil, cancels the pass: RunXL polls it at expansion
	// and elimination boundaries and returns nil facts promptly after
	// cancellation. A nil Context never cancels.
	Context context.Context
	// Rand drives the uniform subsampling.
	Rand *rand.Rand
}

// DefaultXLConfig returns the paper's §IV parameters, with M scaled to
// laptop runs (the paper's M=30 assumes a large-memory machine; results
// are insensitive for our instance sizes).
func DefaultXLConfig(rng *rand.Rand) XLConfig {
	return XLConfig{M: 20, DeltaM: 4, Deg: 1, Rand: rng}
}

// RunXL performs one XL pass over the system and returns the learnt facts:
// linear polynomials and monomial-plus-one polynomials read off the
// Gauss–Jordan-reduced linearization (Table I's "retained" rows).
func RunXL(sys *anf.System, cfg XLConfig) []anf.Poly { return runXL(sys, cfg, nil) }

// runXL is RunXL with an optional witness sink. With a non-nil sink every
// learnt fact is also recorded with its witness: the GF(2) combination of
// multiplier·slot-polynomial products the elimination's ops block picks
// for its row. A nil sink does no witness work at all.
func runXL(sys *anf.System, cfg XLConfig, sink *witnessSink) []anf.Poly {
	if cfg.Deg < 0 {
		cfg.Deg = 1
	}
	if ctxCanceled(cfg.Context) {
		return nil
	}
	idxs := subsampleIdx(sys, cfg.M, cfg.Rand)
	if len(idxs) == 0 {
		return nil
	}
	// Expand in ascending degree order by monomials up to degree D, while
	// the linearized size stays under 2^(M+DeltaM). All expanded
	// polynomials are interned into a pass-local monomial table as they are
	// produced, which both tracks the distinct-monomial count incrementally
	// (the old implementation re-counted from scratch) and pre-computes the
	// integer column IDs the linearization step indexes by.
	all := sys.Polys()
	sort.SliceStable(idxs, func(i, j int) bool { return all[idxs[i]].Deg() < all[idxs[j]].Deg() })
	polys := make([]anf.Poly, len(idxs))
	for i, idx := range idxs {
		polys[i] = all[idx]
	}
	var slots []int // system slot of each polys[i]; tracked runs only
	if sink != nil {
		slots = sampledSlots(sys, idxs)
	}
	limit := uint64(1) << uint(cfg.M+cfg.DeltaM)
	scratch := getLinScratch()
	defer putLinScratch(scratch)
	tab := scratch.tab
	expanded := make([]anf.Poly, 0, 2*len(polys))
	// srcs[j] is the multiplier and system slot behind expanded[j];
	// tracked runs only.
	type rowSrc struct {
		mult anf.Monomial
		slot int
	}
	var srcs []rowSrc
	push := func(q anf.Poly, i int, mult anf.Monomial) {
		expanded = append(expanded, q)
		scratch.ids = tab.AppendTermIDs(scratch.ids, q)
		if sink != nil {
			srcs = append(srcs, rowSrc{mult: mult, slot: slots[i]})
		}
	}
	one := anf.NewMonomial()
	for i, p := range polys {
		push(p, i, one)
	}
	// Collect the variables of the sampled subsystem as degree-1
	// multipliers (D = 1); for D > 1, products of those variables.
	vars := collectVars(polys)
	multipliers := buildMultipliers(vars, cfg.Deg)
expansion:
	for i, p := range polys {
		if ctxCanceled(cfg.Context) {
			return nil
		}
		for _, m := range multipliers {
			q := p.MulMonomial(m)
			if q.IsZero() {
				continue
			}
			push(q, i, m)
			if uint64(len(expanded))*uint64(tab.Len()) > limit {
				break expansion
			}
		}
	}
	if ctxCanceled(cfg.Context) {
		return nil
	}
	rows, ops := gjeRowsIDs(expanded, scratch.ids, tab, scratch, sink != nil)
	var facts []anf.Poly
	for r, p := range rows {
		if !(p.IsLinear() || p.IsMonomialPlusOne() || p.IsOne()) {
			continue
		}
		facts = append(facts, p)
		if sink != nil {
			var wit []SlotTerm
			ops.each(r, func(j int) {
				wit = append(wit, SlotTerm{Mult: anf.FromMonomials(srcs[j].mult), Slot: srcs[j].slot})
			})
			sink.add(p, canonSlotTerms(wit), "gje row")
		}
	}
	return facts
}

// subsample uniformly picks equations until the linearized size
// (rows × distinct monomials) reaches about 2^M (§II-B: m′·n′ ≳ 2^M). The
// distinct-monomial count runs over the system's interned IDs — a bitmap
// probe per term instead of the string-keyed map the seed used.
func subsample(sys *anf.System, m int, rng *rand.Rand) []anf.Poly {
	all := sys.Polys()
	idxs := subsampleIdx(sys, m, rng)
	if len(idxs) == 0 {
		return nil
	}
	out := make([]anf.Poly, len(idxs))
	for i, idx := range idxs {
		out[i] = all[idx]
	}
	return out
}

// subsampleIdx is subsample returning indices into sys.Polys() instead of
// the polynomials, so provenance-tracking callers can attribute each
// sampled equation to its system slot (sampledSlots). It consumes the RNG
// exactly as subsample does (one Perm call).
func subsampleIdx(sys *anf.System, m int, rng *rand.Rand) []int {
	// Warm the table before snapshotting: MonoTable() rewrites the stored
	// polynomials with canonical interned terms, so the polys we pull carry
	// their IDs and every ID() below is an O(1) fast-path hit.
	tab := sys.MonoTable()
	all := sys.Polys()
	if len(all) == 0 {
		return nil
	}
	target := uint64(1) << uint(m)
	perm := rng.Perm(len(all))
	seen := make([]bool, tab.Len())
	distinct := 0
	var out []int
	for _, idx := range perm {
		p := all[idx]
		out = append(out, idx)
		for _, t := range p.Terms() {
			if id := tab.ID(t); !seen[id] {
				seen[id] = true
				distinct++
			}
		}
		if uint64(len(out))*uint64(distinct) >= target {
			break
		}
	}
	return out
}

// sampledSlots maps sys.Polys() indices back to raw equation slots: entry
// i is the slot holding the idxs[i]-th non-zero polynomial.
func sampledSlots(sys *anf.System, idxs []int) []int {
	slots := make([]int, 0, sys.RawLen())
	for i := 0; i < sys.RawLen(); i++ {
		if !sys.At(i).IsZero() {
			slots = append(slots, i)
		}
	}
	out := make([]int, len(idxs))
	for i, idx := range idxs {
		out[i] = slots[idx]
	}
	return out
}

func collectVars(polys []anf.Poly) []anf.Var {
	seen := map[anf.Var]struct{}{}
	for _, p := range polys {
		for _, v := range p.Vars() {
			seen[v] = struct{}{}
		}
	}
	out := make([]anf.Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildMultipliers returns all monomials of degree 1..deg over vars.
func buildMultipliers(vars []anf.Var, deg int) []anf.Monomial {
	var out []anf.Monomial
	var cur []anf.Var
	var rec func(start, d int)
	rec = func(start, d int) {
		if len(cur) > 0 {
			out = append(out, anf.NewMonomial(cur...))
		}
		if d == 0 {
			return
		}
		for i := start; i < len(vars); i++ {
			cur = append(cur, vars[i])
			rec(i+1, d-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, deg)
	return out
}

// gjeRows linearizes the polynomials (one column per distinct monomial,
// constant column last), runs Gauss–Jordan elimination with the M4R
// kernel, and returns every nonzero reduced row as a polynomial — plus,
// when track is set, the row operations behind them. The interning table
// and ID buffers come from the pooled scratch: ElimLin calls this once per
// substitution round, and the reset-not-reallocate lifecycle keeps the
// rounds allocation-light.
func gjeRows(polys []anf.Poly, track bool) ([]anf.Poly, rowOps) {
	scratch := getLinScratch()
	defer putLinScratch(scratch)
	tab := scratch.tab
	for _, p := range polys {
		scratch.ids = tab.AppendTermIDs(scratch.ids, p)
	}
	return gjeRowsIDs(polys, scratch.ids, tab, scratch, track)
}

// gjeRowsIDs is the linearize→eliminate→extract kernel. ids holds the
// term IDs of every polynomial, concatenated in row order (row r owns the
// next polys[r].NumTerms() entries), with every ID already interned in
// tab — so each column index is an integer array lookup and the hot path
// does no string hashing at all. With track the matrix is [A | I] and the
// elimination's pivots are limited to A, so the I block comes out as the
// ops matrix; without it the zero rowOps is returned.
func gjeRowsIDs(polys []anf.Poly, ids []uint32, tab *anf.MonoTable, s *linScratch, track bool) ([]anf.Poly, rowOps) {
	mat, order, monos := linearize(polys, ids, tab, s, track)
	rank := mat.RREFM4RLimit(len(monos))
	var ops rowOps
	if track {
		ops = rowOps{mat: mat, cols: len(monos)}
	}
	return extractRows(mat, rank, order, monos), ops
}

// rowOps reads the row operations of a tracked elimination: reduced row r
// is the XOR of the input rows j whose bit is set in its ops block.
type rowOps struct {
	mat  *gf2.Matrix // a reduced gf2.WithOps matrix
	cols int         // width of its A block
}

// each calls fn with every input row j that reduced row r combines.
func (o rowOps) each(r int, fn func(j int)) {
	gf2.ForEachSetBit(o.mat.OpsRow(r, o.cols), fn)
}

// linearize builds the GF(2) matrix of the polynomials: one column per
// distinct monomial, sorted descending (leading terms first) so the
// reduction eliminates high-degree monomials first, mirroring Table I.
// With track the matrix is gf2.WithOps-shaped: the monomial columns come
// first, then an identity block that the pivot-limited elimination turns
// into the ops matrix.
func linearize(polys []anf.Poly, ids []uint32, tab *anf.MonoTable, s *linScratch, track bool) (mat *gf2.Matrix, order []uint32, monos []anf.Monomial) {
	monos = tab.Monos()
	var col []int // monomial ID → matrix column
	if s != nil {
		order, col = s.orderBufs(len(monos))
	} else {
		order = make([]uint32, len(monos))
		col = make([]int, len(monos))
	}
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		return monos[order[i]].Compare(monos[order[j]]) > 0
	})
	for c, id := range order {
		col[id] = c
	}
	if track {
		mat = gf2.WithOps(len(polys), len(monos))
	} else {
		mat = gf2.NewMatrix(len(polys), len(monos))
	}
	pos := 0
	for r, p := range polys {
		row := mat.Row(r)
		for n := p.NumTerms(); n > 0; n-- {
			c := col[ids[pos]]
			pos++
			gf2.XorBit(row, c)
		}
	}
	return mat, order, monos
}

// extractRows reads the monomial columns of the first rank reduced rows
// back into polynomials.
func extractRows(mat *gf2.Matrix, rank int, order []uint32, monos []anf.Monomial) []anf.Poly {
	out := make([]anf.Poly, 0, rank)
	var terms []anf.Monomial
	aw := gf2.Words(len(order))
	for r := 0; r < rank; r++ {
		terms = terms[:0]
		gf2.ForEachSetBit(mat.Row(r)[:aw], func(c int) {
			if c < len(order) {
				terms = append(terms, monos[order[c]])
			}
		})
		// Ascending columns are descending monomials — already the
		// canonical Poly term order, so skip FromMonomials' sort.
		out = append(out, anf.FromSortedMonomials(terms))
	}
	return out
}
