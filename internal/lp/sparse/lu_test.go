package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// columnsOf adapts a Matrix to the column provider used by Factorize.
func columnsOf(m *Matrix) func(int) ([]int, []float64) {
	return func(k int) ([]int, []float64) { return m.ColumnSlices(k) }
}

// randomNonsingular builds a random sparse matrix that is nonsingular by
// construction: a dense-ish random band plus a strong diagonal.
func randomNonsingular(rng *rand.Rand, n int, density float64) *Matrix {
	var trip []Triplet
	for i := 0; i < n; i++ {
		trip = append(trip, Triplet{Row: i, Col: i, Val: 4 + rng.Float64()})
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				trip = append(trip, Triplet{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := NewFromTriplets(n, n, trip)
	if err != nil {
		panic(err)
	}
	return m
}

func TestLUSolveIdentity(t *testing.T) {
	n := 4
	var trip []Triplet
	for i := 0; i < n; i++ {
		trip = append(trip, Triplet{Row: i, Col: i, Val: 1})
	}
	m, err := NewFromTriplets(n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(n, columnsOf(m), 0)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestLUSolveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		m := randomNonsingular(rng, n, 0.25)
		f, err := Factorize(n, columnsOf(m), 1e-12)
		if err != nil {
			t.Fatalf("trial %d: Factorize: %v", trial, err)
		}
		if len(f.Repairs()) != 0 {
			t.Fatalf("trial %d: unexpected repairs %v", trial, f.Repairs())
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		scratch := make([]float64, n)
		f.Solve(b, x, scratch)
		// Check A*x == b.
		ax := make([]float64, n)
		m.MulVec(x, ax)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d n=%d: residual at row %d: %v vs %v", trial, n, i, ax[i], b[i])
			}
		}
	}
}

func TestLUSolveTransposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(30)
		m := randomNonsingular(rng, n, 0.25)
		f, err := Factorize(n, columnsOf(m), 1e-12)
		if err != nil {
			t.Fatalf("trial %d: Factorize: %v", trial, err)
		}
		c := make([]float64, n)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		y := make([]float64, n)
		scratch := make([]float64, n)
		f.SolveT(c, y, scratch)
		// Check Aᵀ*y == c.
		aty := make([]float64, n)
		m.MulTVec(y, aty)
		for i := range c {
			if math.Abs(aty[i]-c[i]) > 1e-8*(1+math.Abs(c[i])) {
				t.Fatalf("trial %d n=%d: transpose residual at %d: %v vs %v", trial, n, i, aty[i], c[i])
			}
		}
	}
}

func TestLUPermutedIdentity(t *testing.T) {
	// A permutation matrix exercises pivoting without any arithmetic.
	n := 6
	perm := []int{3, 0, 5, 1, 4, 2}
	var trip []Triplet
	for j, i := range perm {
		trip = append(trip, Triplet{Row: i, Col: j, Val: 1})
	}
	m, err := NewFromTriplets(n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(n, columnsOf(m), 0)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	ax := make([]float64, n)
	m.MulVec(x, ax)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-12 {
			t.Errorf("A*x[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

func TestLUSingularRepaired(t *testing.T) {
	// Two identical columns: the second must be repaired.
	n := 3
	trip := []Triplet{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 0, Val: 2},
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 1, Val: 2},
		{Row: 2, Col: 2, Val: 5},
	}
	m, err := NewFromTriplets(n, n, trip)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(n, columnsOf(m), 1e-10)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if len(f.Repairs()) != 1 {
		t.Fatalf("Repairs = %v, want exactly one", f.Repairs())
	}
	// The repaired factorization must solve the repaired matrix exactly:
	// column Pos of A replaced by the unit column of Row.
	rep := f.Repairs()[0]
	d := m.Dense()
	for i := 0; i < n; i++ {
		d[i][rep.Pos] = 0
	}
	d[rep.Row][rep.Pos] = 1
	b := []float64{1, -2, 3}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	for i := 0; i < n; i++ {
		got := 0.0
		for j := 0; j < n; j++ {
			got += d[i][j] * x[j]
		}
		if math.Abs(got-b[i]) > 1e-9 {
			t.Errorf("repaired A*x[%d] = %v, want %v", i, got, b[i])
		}
	}
}

func TestLUZeroDimension(t *testing.T) {
	f, err := Factorize(0, func(int) ([]int, []float64) { return nil, nil }, 0)
	if err != nil {
		t.Fatalf("Factorize(0): %v", err)
	}
	if f.N() != 0 {
		t.Errorf("N = %d, want 0", f.N())
	}
	f.Solve(nil, nil, nil)
	f.SolveT(nil, nil, nil)
}

func TestLUAllZeroMatrixFullyRepaired(t *testing.T) {
	n := 4
	f, err := Factorize(n, func(int) ([]int, []float64) { return nil, nil }, 1e-10)
	if err != nil {
		t.Fatalf("Factorize: %v", err)
	}
	if got := len(f.Repairs()); got != n {
		t.Fatalf("Repairs = %d, want %d", got, n)
	}
	// Repaired matrix is a permutation of the identity; solving must work.
	b := []float64{1, 2, 3, 4}
	x := make([]float64, n)
	scratch := make([]float64, n)
	f.Solve(b, x, scratch)
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	if math.Abs(sum-10) > 1e-12 {
		t.Errorf("solution sum = %v, want 10", sum)
	}
}

func BenchmarkLUFactorize200(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := randomNonsingular(rng, 200, 0.02)
	cols := columnsOf(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factorize(200, cols, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve200(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 200
	m := randomNonsingular(rng, n, 0.02)
	f, err := Factorize(n, columnsOf(m), 1e-12)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	scratch := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Solve(rhs, x, scratch)
	}
}

// TestFactorizeBasis checks the basis-selection entry point: factorizing
// columns [2, 0] of a 2x3 matrix must reproduce B = [a_2, a_0] and solve
// against it, and malformed bases must be rejected.
func TestFactorizeBasis(t *testing.T) {
	a, err := NewFromTriplets(2, 3, []Triplet{
		{0, 0, 2}, {1, 0, 1},
		{0, 1, 1},
		{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var lu LU
	if err := lu.FactorizeBasis(a, []int{2, 0}, 0); err != nil {
		t.Fatal(err)
	}
	// B = [[0, 2], [3, 1]]; solve B x = [2, 4] -> x = [10/9... ] check via residual.
	x := make([]float64, 2)
	scratch := make([]float64, 2)
	lu.Solve([]float64{2, 4}, x, scratch)
	if r0 := 0*x[0] + 2*x[1] - 2; r0 > 1e-12 || r0 < -1e-12 {
		t.Errorf("residual row 0 = %v", r0)
	}
	if r1 := 3*x[0] + 1*x[1] - 4; r1 > 1e-12 || r1 < -1e-12 {
		t.Errorf("residual row 1 = %v", r1)
	}
	if err := lu.FactorizeBasis(a, []int{0}, 0); err == nil {
		t.Error("expected error for basis/row-count mismatch")
	}
	if err := lu.FactorizeBasis(a, []int{0, 5}, 0); err == nil {
		t.Error("expected error for out-of-range basis column")
	}
}

// TestLURefactorInPlace pins the recycling contract of (*LU).Factorize: one
// LU refactorized through matrices of varying size — among them singular
// ones that need repairs, each sometimes after a malformed column failed
// midway through the previous call — must hold after every call exactly the
// factors a fresh LU gets for the same matrix. One
// pattern workspace serves every size, so its reslicing is covered too.
func TestLURefactorInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var f LU
	var ws, wsFresh PatternWorkspace
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := randomNonsingular(rng, n, 0.2)
		col := columnsOf(m)
		if trial%3 == 1 {
			// The last column duplicates the first: singular, repaired.
			col = func(k int) ([]int, []float64) {
				if k == n-1 {
					return m.ColumnSlices(0)
				}
				return m.ColumnSlices(k)
			}
		}
		if trial%4 == 2 {
			// Fails in the DFS of the last column, after marking.
			bad := func(k int) ([]int, []float64) {
				if k == n-1 {
					return []int{0, n}, []float64{1, 1}
				}
				return col(k)
			}
			if err := f.Factorize(n, bad, 1e-12); err == nil {
				t.Fatalf("trial %d: out-of-range row accepted", trial)
			}
		}
		if err := f.Factorize(n, col, 1e-12); err != nil {
			t.Fatalf("trial %d: Factorize: %v", trial, err)
		}
		fresh, err := Factorize(n, col, 1e-12)
		if err != nil {
			t.Fatalf("trial %d: fresh Factorize: %v", trial, err)
		}
		if (trial%3 == 1) != (len(f.Repairs()) > 0) {
			t.Fatalf("trial %d: repairs %v", trial, f.Repairs())
		}
		for name, pair := range map[string][2][]int{
			"lColPtr": {f.lColPtr, fresh.lColPtr}, "lRow": {f.lRow, fresh.lRow},
			"uColPtr": {f.uColPtr, fresh.uColPtr}, "uRow": {f.uRow, fresh.uRow},
			"lRowPtr": {f.lRowPtr, fresh.lRowPtr}, "lRowCol": {f.lRowCol, fresh.lRowCol},
			"uRowPtr": {f.uRowPtr, fresh.uRowPtr}, "uRowCol": {f.uRowCol, fresh.uRowCol},
			"pinv": {f.pinv, fresh.pinv}, "perm": {f.perm, fresh.perm},
		} {
			if !slices.Equal(pair[0], pair[1]) {
				t.Fatalf("trial %d: recycled %s %v, fresh %v", trial, name, pair[0], pair[1])
			}
		}
		if !slices.Equal(f.lVal, fresh.lVal) || !slices.Equal(f.uVal, fresh.uVal) ||
			!slices.Equal(f.uDiag, fresh.uDiag) || !slices.Equal(f.repairs, fresh.repairs) {
			t.Fatalf("trial %d: recycled factor values differ from fresh", trial)
		}
		// A sparse solve through the shared, resliced workspace matches one
		// through a fresh-sized workspace bit for bit.
		idx, val := []int{rng.Intn(n)}, []float64{1}
		got, want := make([]float64, n), make([]float64, n)
		f.SolveSparseRHS(idx, val, got, &ws, n)
		fresh.SolveSparseRHS(idx, val, want, &wsFresh, n)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: recycled solve %v, fresh %v", trial, got, want)
		}
		wsFresh = PatternWorkspace{}
	}
}

// TestSetTripletsAndMirrorRecycle pins in-place rebuilds of a Matrix and its
// CSR mirror: rebuilding one pair through matrices of varying shape must
// give exactly what fresh assembly gives.
func TestSetTripletsAndMirrorRecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var m Matrix
	var c CSR
	for trial := 0; trial < 30; trial++ {
		rows, cols := 1+rng.Intn(25), 1+rng.Intn(25)
		var trip []Triplet
		for k := rng.Intn(rows * cols); k > 0; k-- {
			trip = append(trip, Triplet{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()})
		}
		if err := m.SetTriplets(rows, cols, trip); err != nil {
			t.Fatal(err)
		}
		want, err := NewFromTriplets(rows, cols, trip)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows != want.Rows || m.Cols != want.Cols || !slices.Equal(m.ColPtr, want.ColPtr) ||
			!slices.Equal(m.RowIdx, want.RowIdx) || !slices.Equal(m.Val, want.Val) {
			t.Fatalf("trial %d: recycled matrix differs from fresh", trial)
		}
		c.Mirror(&m)
		for i := 0; i < rows; i++ {
			idx, val := c.RowSlices(i)
			for p, j := range idx {
				if m.At(i, j) != val[p] || (p > 0 && idx[p-1] >= j) {
					t.Fatalf("trial %d: mirror row %d entry %d = (%d, %v)", trial, i, p, j, val[p])
				}
			}
		}
		if len(c.ColIdx) != m.NNZ() || c.Rows != rows || c.Cols != cols {
			t.Fatalf("trial %d: mirror holds %d entries of %d", trial, len(c.ColIdx), m.NNZ())
		}
	}
}
