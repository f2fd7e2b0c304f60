package anf

import (
	"strings"
	"testing"
)

// FuzzParsePoly checks that the parser never panics and that everything
// it accepts survives a print/parse round trip.
func FuzzParsePoly(f *testing.F) {
	for _, seed := range []string{
		"x1*x2 + x3 + 1",
		"0",
		"1",
		"x0",
		"x4294967295",
		"x1 + x1",
		"  x2 * x3  +  1 ",
		"x1*x2*x3*x4*x5",
		"x1 ⊕ x2",
		"+ x1",
		"x1 +",
		"y1",
		"x",
		"x1**x2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePoly(s)
		if err != nil {
			return
		}
		back, err := ParsePoly(p.String())
		if err != nil {
			t.Fatalf("printed form %q of %q does not parse: %v", p.String(), s, err)
		}
		if !back.Equal(p) {
			t.Fatalf("round trip changed %q: %q vs %q", s, p.String(), back.String())
		}
	})
}

// FuzzReadSystem checks that the system reader — the entry point for
// service payloads — never panics, and that accepted systems survive a
// write/read round trip with the same equation count and variable space.
func FuzzReadSystem(f *testing.F) {
	for _, seed := range []string{
		"x1*x2 + x3 + 1\nx1 + x3\n",
		"# comment\nx1\n\nc more\nx2 + 1\n",
		"x1 +\n",
		"x99999999999\n",
		"x16777217\n", // MaxVarIndex + 1
		"\xff\xfex1\n",
		"0\n1\n",
		strings.Repeat("x1 + ", 50) + "1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sys, err := ReadSystem(strings.NewReader(s))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteSystem(&sb, sys); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		back, err := ReadSystem(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip does not parse: %v", err)
		}
		if back.Len() != sys.Len() || back.NumVars() != sys.NumVars() {
			t.Fatalf("round trip changed shape: %d/%d eqs, %d/%d vars",
				sys.Len(), back.Len(), sys.NumVars(), back.NumVars())
		}
	})
}

// substituteVarOracle is the term-by-term SubstituteVar the in-place
// kernel replaced: each term v·m adds r·m through a fresh polynomial
// product and merge. It stays as the reference the fuzzer checks against.
func substituteVarOracle(p Poly, v Var, r Poly) Poly {
	if !p.ContainsVar(v) {
		return p
	}
	keep := make([]Monomial, 0, len(p.terms))
	var replaced Poly
	for _, t := range p.terms {
		if !t.Contains(v) {
			keep = append(keep, t)
			continue
		}
		rest := t.Without(v)
		replaced = replaced.Add(r.MulMonomial(rest))
	}
	return Poly{terms: keep}.Add(replaced)
}

// fuzzPoly decodes bytes into a polynomial over the eight variables
// base..base+7: each byte is one monomial, bit k selecting variable
// base+k. Repeated bytes cancel, so short inputs already exercise heavy
// cancellation.
func fuzzPoly(data []byte, base Var) Poly {
	ms := make([]Monomial, len(data))
	for i, b := range data {
		var vs []Var
		for k := 0; k < 8; k++ {
			if b>>k&1 == 1 {
				vs = append(vs, base+Var(k))
			}
		}
		ms[i] = NewMonomial(vs...)
	}
	return FromMonomials(ms...)
}

// isCanonical reports whether p's terms are strictly descending, the form
// every Poly operation must return.
func isCanonical(p Poly) bool {
	for i := 1; i < len(p.terms); i++ {
		if p.terms[i-1].Compare(p.terms[i]) <= 0 {
			return false
		}
	}
	return true
}

// FuzzSubstituteVar checks the in-place SubstituteVar against the
// term-by-term oracle. shape picks the right-hand side's form: as decoded,
// the constants 0 and 1, the cofactor of v in p (so r shares the
// variables v multiplies), or p rewritten so that v occurs in every term.
func FuzzSubstituteVar(f *testing.F) {
	f.Add([]byte{0x03, 0x05, 0x01}, []byte{0x06, 0x00}, uint8(0), uint8(0), uint32(0))
	f.Add([]byte{0x03, 0x05, 0x01, 0x07}, []byte{}, uint8(0), uint8(1), uint32(0))
	f.Add([]byte{0x03, 0x05, 0x01, 0x00}, []byte{}, uint8(0), uint8(2), uint32(0))
	f.Add([]byte{0x03, 0x07, 0x0f, 0x02}, []byte{}, uint8(0), uint8(3), uint32(0))
	f.Add([]byte{0x02, 0x04, 0x06, 0x00}, []byte{0x02, 0x04}, uint8(0), uint8(4), uint32(0))
	f.Add([]byte{0xff, 0x80, 0x81}, []byte{0x7f, 0x01}, uint8(7), uint8(0), uint32(1<<24))
	f.Fuzz(func(t *testing.T, pb, rb []byte, vb, shape uint8, base uint32) {
		if len(pb) > 64 || len(rb) > 64 {
			return
		}
		base %= 1 << 24
		v := Var(base) + Var(vb%8)
		p, r := fuzzPoly(pb, Var(base)), fuzzPoly(rb, Var(base))
		switch shape % 5 {
		case 1:
			r = Zero()
		case 2:
			r = OnePoly()
		case 3:
			var cof []Monomial
			for _, t := range p.terms {
				if t.Contains(v) {
					cof = append(cof, t.Without(v))
				}
			}
			r = FromMonomials(cof...).Add(r)
		case 4:
			p = p.MulMonomial(NewMonomial(v))
		}
		got, want := p.SubstituteVar(v, r), substituteVarOracle(p, v, r)
		if !isCanonical(got) {
			t.Fatalf("(%v)[%v := %v] = %v is not canonical", p, v, r, got)
		}
		if !got.Equal(want) {
			t.Fatalf("(%v)[%v := %v] = %v, oracle gives %v", p, v, r, got, want)
		}
	})
}

// TestParseRejectsMalformed pins the hardening contract for the ANF
// reader: out-of-range indices and non-UTF-8 input error out, never
// panic, never produce a system with an absurd variable space.
func TestParseRejectsMalformed(t *testing.T) {
	bad := []struct{ name, in string }{
		{"index beyond MaxVarIndex", "x16777217\n"},
		{"huge index", "x4294967295\n"},
		{"overflowing index", "x99999999999999999999\n"},
		{"non-UTF-8", "\xff\xfex1\n"},
		{"empty term", "x1 +\n"},
		{"bad factor", "x1*y2\n"},
	}
	for _, tc := range bad {
		if _, err := ReadSystem(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
	if sys, err := ReadSystem(strings.NewReader("x16777216\n")); err != nil {
		t.Errorf("index at MaxVarIndex rejected: %v", err)
	} else if sys.NumVars() != MaxVarIndex+1 {
		t.Errorf("NumVars = %d, want %d", sys.NumVars(), MaxVarIndex+1)
	}
}
