package anf

import (
	"slices"
	"sort"
	"strings"
)

// Poly is a Boolean polynomial: a GF(2) sum (XOR) of distinct monomials.
// The zero polynomial has no monomials. Monomials are kept sorted in
// descending graded-lex order (leading term first), mirroring the term
// order a Gröbner-basis engine would use.
//
// A Poly used as an equation means "this polynomial equals zero".
type Poly struct {
	terms []Monomial
}

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// OnePoly returns the constant-1 polynomial (the contradictory equation
// 1 = 0 when read as an equation).
func OnePoly() Poly { return Poly{terms: []Monomial{One}} }

// FromMonomials builds a polynomial from monomials, cancelling duplicates
// in pairs (m ⊕ m = 0).
func FromMonomials(ms ...Monomial) Poly {
	ts := append([]Monomial(nil), ms...)
	return Poly{terms: append([]Monomial(nil), sortCancel(ts)...)}
}

// FromSortedMonomials builds a polynomial from monomials that are already
// in strictly descending order with no duplicates — the canonical term
// order. It trusts the caller (no sorting, no cancellation) and copies the
// slice. The linearization kernels use it to read reduced matrix rows back
// into polynomials without paying FromMonomials' sort.
func FromSortedMonomials(ms []Monomial) Poly {
	return Poly{terms: append([]Monomial(nil), ms...)}
}

// VarPoly returns the polynomial consisting of the single variable v.
func VarPoly(v Var) Poly { return Poly{terms: []Monomial{NewMonomial(v)}} }

// Constant returns the polynomial 0 or 1.
func Constant(b bool) Poly {
	if b {
		return OnePoly()
	}
	return Zero()
}

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p.terms) == 0 }

// IsOne reports whether p is the constant 1.
func (p Poly) IsOne() bool { return len(p.terms) == 1 && p.terms[0].IsOne() }

// Terms returns the monomials in descending order. Callers must not modify
// the returned slice.
func (p Poly) Terms() []Monomial { return p.terms }

// NumTerms returns the number of monomials.
func (p Poly) NumTerms() int { return len(p.terms) }

// Deg returns the total degree (degree of the leading term), or -1 for the
// zero polynomial.
func (p Poly) Deg() int {
	if p.IsZero() {
		return -1
	}
	return p.terms[0].Deg()
}

// Lead returns the leading monomial. Panics on the zero polynomial.
func (p Poly) Lead() Monomial {
	if p.IsZero() {
		panic("anf: Lead of zero polynomial")
	}
	return p.terms[0]
}

// HasConstant reports whether the constant term 1 is present.
func (p Poly) HasConstant() bool {
	return len(p.terms) > 0 && p.terms[len(p.terms)-1].IsOne()
}

// Add returns p ⊕ q: the symmetric difference of the term sets, via a
// linear-time merge.
func (p Poly) Add(q Poly) Poly {
	out := make([]Monomial, 0, len(p.terms)+len(q.terms))
	i, j := 0, 0
	for i < len(p.terms) && j < len(q.terms) {
		switch c := p.terms[i].Compare(q.terms[j]); {
		case c > 0:
			out = append(out, p.terms[i])
			i++
		case c < 0:
			out = append(out, q.terms[j])
			j++
		default: // equal terms cancel
			i++
			j++
		}
	}
	out = append(out, p.terms[i:]...)
	out = append(out, q.terms[j:]...)
	return Poly{terms: out}
}

// AddConstant returns p ⊕ 1 if b, else p.
func (p Poly) AddConstant(b bool) Poly {
	if !b {
		return p
	}
	return p.Add(OnePoly())
}

// MulMonomial returns p·m. Multiplying distinct monomials by m can merge
// them (absorption), so duplicates are re-cancelled.
func (p Poly) MulMonomial(m Monomial) Poly {
	if m.IsOne() {
		return p
	}
	prods := make([]Monomial, len(p.terms))
	for i, t := range p.terms {
		prods[i] = t.Mul(m)
	}
	return FromMonomials(prods...)
}

// Mul returns the product p·q over GF(2).
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Zero()
	}
	prods := make([]Monomial, 0, len(p.terms)*len(q.terms))
	for _, a := range p.terms {
		for _, b := range q.terms {
			prods = append(prods, a.Mul(b))
		}
	}
	return FromMonomials(prods...)
}

// Equal reports structural equality (which, for canonical forms, is
// mathematical equality).
func (p Poly) Equal(q Poly) bool {
	if len(p.terms) != len(q.terms) {
		return false
	}
	for i := range p.terms {
		if !p.terms[i].Equal(q.terms[i]) {
			return false
		}
	}
	return true
}

// Vars returns the sorted set of variables occurring in p.
func (p Poly) Vars() []Var {
	n := 0
	for _, t := range p.terms {
		n += len(t.vars)
	}
	out := make([]Var, 0, n)
	for _, t := range p.terms {
		out = append(out, t.vars...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// ContainsVar reports whether v occurs in any term of p.
func (p Poly) ContainsVar(v Var) bool {
	for _, t := range p.terms {
		if t.Contains(v) {
			return true
		}
	}
	return false
}

// Eval evaluates the polynomial under the assignment.
func (p Poly) Eval(assign func(Var) bool) bool {
	acc := false
	for _, t := range p.terms {
		if t.Eval(assign) {
			acc = !acc
		}
	}
	return acc
}

// SubstituteVar returns p with every occurrence of v replaced by the
// polynomial r: each term v·m contributes r·m, and terms without v are
// kept as they are. Every product m·s (s a term of r) is written into one
// shared variable buffer, the products are sorted once and cancelled in
// pairs, and the survivors are merged with the untouched terms: three
// allocations per call, none when v does not occur in p (p itself is
// returned).
func (p Poly) SubstituteVar(v Var, r Poly) Poly {
	hits, size := 0, 0
	for _, t := range p.terms {
		if t.Contains(v) {
			hits++
			size += len(t.vars) - 1
		}
	}
	if hits == 0 {
		return p
	}
	rsize := 0
	for _, s := range r.terms {
		rsize += len(s.vars)
	}
	buf := make([]Var, 0, size*len(r.terms)+hits*rsize)
	prods := make([]Monomial, 0, hits*len(r.terms))
	for _, t := range p.terms {
		if !t.Contains(v) {
			continue
		}
		for _, s := range r.terms {
			start := len(buf)
			buf = appendProductWithout(buf, t.vars, s.vars, v)
			prods = append(prods, Monomial{vars: buf[start:len(buf):len(buf)]})
		}
	}
	prods = sortCancel(prods)
	out := make([]Monomial, 0, len(p.terms)-hits+len(prods))
	i, j := 0, 0
	for i < len(p.terms) {
		t := p.terms[i]
		if t.Contains(v) {
			i++
			continue
		}
		if j == len(prods) {
			out = append(out, t)
			i++
			continue
		}
		switch c := t.Compare(prods[j]); {
		case c > 0:
			out = append(out, t)
			i++
		case c < 0:
			out = append(out, prods[j])
			j++
		default: // equal terms cancel
			i++
			j++
		}
	}
	out = append(out, prods[j:]...)
	return Poly{terms: out}
}

// appendProductWithout appends the sorted variable list of (t/v)·s to buf:
// the union of t without v and s, both sorted ascending.
func appendProductWithout(buf, t, s []Var, v Var) []Var {
	i, j := 0, 0
	for i < len(t) || j < len(s) {
		if i < len(t) && t[i] == v {
			i++
			continue
		}
		switch {
		case j == len(s) || (i < len(t) && t[i] < s[j]):
			buf = append(buf, t[i])
			i++
		case i == len(t) || s[j] < t[i]:
			buf = append(buf, s[j])
			j++
		default: // shared variable: x·x = x
			buf = append(buf, t[i])
			i++
			j++
		}
	}
	return buf
}

// sortCancel sorts ms into the canonical descending order and removes
// equal monomials in pairs (m ⊕ m = 0), in place.
func sortCancel(ms []Monomial) []Monomial {
	slices.SortFunc(ms, func(a, b Monomial) int { return b.Compare(a) })
	out := ms[:0]
	for i := 0; i < len(ms); {
		j := i + 1
		for j < len(ms) && ms[j].Equal(ms[i]) {
			j++
		}
		if (j-i)%2 == 1 {
			out = append(out, ms[i])
		}
		i = j
	}
	return out
}

// LitImage is what SubstituteLits puts in place of one variable: the
// constant Val when Const is set, else the literal V ⊕ Neg.
type LitImage struct {
	V     Var
	Neg   bool
	Const bool
	Val   bool
}

// SubstituteLits returns p with every variable for which img reports true
// replaced by its image, all at once. Each affected term expands to the
// product of its variables' images; the expansions of all terms are
// written into one shared variable buffer, sorted once, cancelled in
// pairs and merged with the unaffected terms. When img reports no
// variable of p, p itself is returned.
func (p Poly) SubstituteLits(img func(Var) (LitImage, bool)) Poly {
	var posArr, negArr [16]Var
	var keep []Monomial
	var buf []Var
	var ends []int
	touched := false
	for ti, t := range p.terms {
		pos, neg := posArr[:0], negArr[:0]
		bound, zero := false, false
		for _, v := range t.vars {
			im, ok := img(v)
			switch {
			case !ok:
				pos = append(pos, v)
				continue
			case im.Const:
				zero = zero || !im.Val
			case im.Neg:
				neg = append(neg, im.V)
			default:
				pos = append(pos, im.V)
			}
			bound = true
		}
		if !bound {
			if touched {
				keep = append(keep, t)
			}
			continue
		}
		if !touched {
			touched = true
			keep = append(make([]Monomial, 0, len(p.terms)), p.terms[:ti]...)
		}
		if zero {
			continue
		}
		slices.Sort(pos)
		pos = slices.Compact(pos)
		slices.Sort(neg)
		neg = slices.Compact(neg)
		// Π pos · Π (n ⊕ 1) over n in neg = Σ over subsets S of neg of
		// Π pos · Π S, each product a sorted merge. When n is also in
		// pos, the subsets with and without n give the same product and
		// cancel: x·(x ⊕ 1) = 0.
		for mask := 0; mask < 1<<len(neg); mask++ {
			i := 0
			for j, n := range neg {
				if mask>>j&1 == 0 {
					continue
				}
				for i < len(pos) && pos[i] < n {
					buf = append(buf, pos[i])
					i++
				}
				if i < len(pos) && pos[i] == n {
					i++ // x·x = x
				}
				buf = append(buf, n)
			}
			buf = append(buf, pos[i:]...)
			ends = append(ends, len(buf))
		}
	}
	if !touched {
		return p
	}
	prods := make([]Monomial, len(ends))
	start := 0
	for i, end := range ends {
		prods[i] = Monomial{vars: buf[start:end:end]}
		start = end
	}
	return Poly{terms: keep}.Add(Poly{terms: sortCancel(prods)})
}

// SubstituteConst returns p with v fixed to the constant value b.
func (p Poly) SubstituteConst(v Var, b bool) Poly {
	return p.SubstituteVar(v, Constant(b))
}

// IsLinear reports whether every term has degree ≤ 1 (a linear equation,
// possibly with a constant).
func (p Poly) IsLinear() bool { return p.Deg() <= 1 }

// LinearVars returns the variables of a linear polynomial's degree-1 terms.
// It panics if p is not linear.
func (p Poly) LinearVars() []Var {
	if !p.IsLinear() {
		panic("anf: LinearVars on nonlinear polynomial")
	}
	var out []Var
	for _, t := range p.terms {
		if t.Deg() == 1 {
			out = append(out, t.Vars()[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsMonomialPlusOne reports whether p has the form m ⊕ 1 with m a single
// non-constant monomial — the learnt-fact shape that forces every variable
// of m to 1.
func (p Poly) IsMonomialPlusOne() bool {
	return len(p.terms) == 2 && p.terms[1].IsOne() && p.terms[0].Deg() >= 1
}

// String renders the polynomial like "x1*x2 + x3 + 1" ("+" is GF(2)
// addition, i.e. XOR). The zero polynomial renders as "0".
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	parts := make([]string, len(p.terms))
	for i, t := range p.terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// MaxVar returns the largest variable index occurring in p and true, or
// (0, false) if p has no variables.
func (p Poly) MaxVar() (Var, bool) {
	var max Var
	found := false
	for _, t := range p.terms {
		vs := t.Vars()
		if len(vs) > 0 {
			if v := vs[len(vs)-1]; !found || v > max {
				max = v
				found = true
			}
		}
	}
	return max, found
}
