package gf2

import (
	"math/rand"
	"testing"
)

// forceBlockedApply shrinks the calibrated fast-cache budget so applyRound
// takes the column-blocked strip path even on small test matrices, and
// returns a restore func. The calibration is forced first so the Once does
// not overwrite the override later.
func forceBlockedApply() func() {
	calibOnce.Do(calibrate)
	old := fastCacheWords
	fastCacheWords = minStripWords
	return func() { fastCacheWords = old }
}

// The column-blocked strip path must produce the same unique RREF as the
// scalar kernel on every shape, including tail-word widths and zero rows.
// The default calibration keeps small matrices on the fused path, so the
// budget is pinned down to route every round through the strips.
func TestBlockedApplyMatchesScalar(t *testing.T) {
	defer forceBlockedApply()()
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 80; trial++ {
		m := randomShapedMatrix(rng)
		// Splice in explicit zero rows to exercise the lead sentinel.
		for i := 0; i < m.Rows()/8; i++ {
			r := rng.Intn(m.Rows())
			row := m.Row(r)
			for w := range row {
				row[w] = 0
			}
		}
		plain, blocked := m.Clone(), m.Clone()
		rp := plain.RREF()
		if rb := blocked.RREFM4R(); rb != rp {
			t.Fatalf("trial %d (%dx%d): rank %d, want %d", trial, m.Rows(), m.Cols(), rb, rp)
		} else if !blocked.Equal(plain) {
			t.Fatalf("trial %d (%dx%d): blocked RREF differs from scalar", trial, m.Rows(), m.Cols())
		}
	}
}

// Degenerate shapes must not panic and must agree with the scalar kernel.
func TestKernelDegenerateShapes(t *testing.T) {
	shapes := []struct{ rows, cols int }{
		{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 200}, {200, 1}, {3, 64}, {64, 3},
	}
	rng := rand.New(rand.NewSource(5))
	for _, sh := range shapes {
		m := NewMatrix(sh.rows, sh.cols)
		for r := 0; r < sh.rows; r++ {
			for c := 0; c < sh.cols; c++ {
				if rng.Intn(2) == 0 {
					m.Set(r, c, true)
				}
			}
		}
		plain, m4r := m.Clone(), m.Clone()
		if rp, rm := plain.RREF(), m4r.RREFM4R(); rp != rm || !plain.Equal(m4r) {
			t.Fatalf("%dx%d: scalar and M4R kernels disagree (rank %d vs %d)", sh.rows, sh.cols, rp, rm)
		}
		if zero := NewMatrix(sh.rows, sh.cols); zero.RREFM4R() != 0 {
			t.Fatalf("%dx%d: zero matrix must have rank 0", sh.rows, sh.cols)
		}
	}
}

// withOps returns WithOps(a.Rows(), a.Cols()) with a copied into its A
// block.
func withOps(a *Matrix) *Matrix {
	aug := WithOps(a.Rows(), a.Cols())
	for r := 0; r < a.Rows(); r++ {
		copy(aug.Row(r)[:a.stride], a.Row(r))
	}
	return aug
}

// splitTracked cuts a reduced WithOps matrix back into its A block (cols
// columns) and the rows×rows ops matrix.
func splitTracked(aug *Matrix, cols int) (*Matrix, *Matrix) {
	rows := aug.Rows()
	red, ops := NewMatrix(rows, cols), NewMatrix(rows, rows)
	for r := 0; r < rows; r++ {
		copy(red.Row(r), aug.Row(r))
		copy(ops.Row(r), aug.OpsRow(r, cols))
	}
	return red, ops
}

// Tracked M4R — RREFM4RLimit on [A | I] — must reduce the A block to the
// RREF oracle bit-for-bit and leave an ops block that replays it
// (ops·A == R), on tall, wide and rank-deficient shapes, with garbage
// smeared past the last valid column, and through the column-blocked
// apply. The provenance witnesses and VerifyFacts replay depend on both
// halves.
func TestTrackedM4RReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		if trial == 60 {
			defer forceBlockedApply()()
		}
		a := randomShapedMatrix(rng)
		// Rank deficiency beyond the dead columns: overwrite some rows
		// with sums of others.
		for i := 0; i < a.Rows()/4; i++ {
			dst, x, y := rng.Intn(a.Rows()), rng.Intn(a.Rows()), rng.Intn(a.Rows())
			if dst == x || dst == y {
				continue
			}
			row := a.Row(dst)
			copy(row, a.Row(x))
			xorWords(row, a.Row(y))
		}
		want := a.Clone()
		rw := want.RREF()
		aug := withOps(a)
		if trial%3 == 0 {
			mask := lastWordMask(aug.Cols())
			for r := 0; r < aug.Rows(); r++ {
				row := aug.Row(r)
				row[len(row)-1] |= ^mask
			}
		}
		rt := aug.RREFM4RLimit(a.Cols())
		if rt != rw {
			t.Fatalf("trial %d (%dx%d): rank tracked=%d oracle=%d", trial, a.Rows(), a.Cols(), rt, rw)
		}
		red, ops := splitTracked(aug, a.Cols())
		if !red.Equal(want) {
			t.Fatalf("trial %d (%dx%d): tracked A block differs from the RREF oracle",
				trial, a.Rows(), a.Cols())
		}
		if replay := ops.Mul(a); !replay.Equal(red) {
			t.Fatalf("trial %d (%dx%d): ops matrix does not replay the reduction",
				trial, a.Rows(), a.Cols())
		}
	}
}

// Smeared bits past the last valid column must not change the computed
// RREF of the valid columns: Row() exposes the packed words, so callers
// (linearize buffers, augmented assemblies) can leave garbage in the tail
// word, and lead tracking must treat it as zero.
func TestKernelIgnoresTailGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, cols := range []int{5, 63, 65, 127} {
		rows := 20
		m := NewMatrix(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Intn(2) == 0 {
					m.Set(r, c, true)
				}
			}
		}
		clean := m.Clone()
		rc := clean.RREF()
		dirty := m.Clone()
		mask := lastWordMask(cols)
		for r := 0; r < rows; r++ {
			row := dirty.Row(r)
			row[len(row)-1] |= ^mask // smear every invalid bit
		}
		rd := dirty.RREFM4R()
		if rd != rc {
			t.Fatalf("cols=%d: rank with tail garbage %d, want %d", cols, rd, rc)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if dirty.Get(r, c) != clean.Get(r, c) {
					t.Fatalf("cols=%d: bit (%d,%d) differs under tail garbage", cols, r, c)
				}
			}
		}
	}
}
