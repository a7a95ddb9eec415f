package lp

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// assertBitIdentical asserts that two solves of the same model followed the
// exact same pivot trajectory: identical status, iteration counts, solve
// counters, and bit-for-bit equal primal/dual vectors.
func assertBitIdentical(t *testing.T, label string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("%s: status %v vs %v", label, a.Status, b.Status)
	}
	if a.Objective != b.Objective {
		t.Fatalf("%s: objective %v vs %v (not bit-identical)", label, a.Objective, b.Objective)
	}
	if a.Iterations != b.Iterations || a.Phase1Iter != b.Phase1Iter {
		t.Fatalf("%s: iterations %d/%d vs %d/%d", label, a.Iterations, a.Phase1Iter, b.Iterations, b.Phase1Iter)
	}
	if a.Factorized != b.Factorized {
		t.Fatalf("%s: factorizations %d vs %d", label, a.Factorized, b.Factorized)
	}
	if a.SparseSolves != b.SparseSolves || a.DenseSolves != b.DenseSolves ||
		a.SolveNNZ != b.SolveNNZ || a.SolveDim != b.SolveDim {
		t.Fatalf("%s: solve counters (%d,%d,%d,%d) vs (%d,%d,%d,%d)", label,
			a.SparseSolves, a.DenseSolves, a.SolveNNZ, a.SolveDim,
			b.SparseSolves, b.DenseSolves, b.SolveNNZ, b.SolveDim)
	}
	if a.DevexResets != b.DevexResets || a.DualRecomputes != b.DualRecomputes {
		t.Fatalf("%s: devex counters (%d,%d) vs (%d,%d)", label,
			a.DevexResets, a.DualRecomputes, b.DevexResets, b.DualRecomputes)
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Fatalf("%s: X[%d] = %v vs %v (not bit-identical)", label, j, a.X[j], b.X[j])
		}
	}
	for i := range a.Dual {
		if a.Dual[i] != b.Dual[i] {
			t.Fatalf("%s: Dual[%d] = %v vs %v (not bit-identical)", label, i, a.Dual[i], b.Dual[i])
		}
	}
}

// TestConcurrentSolvesShareNoWorkspace solves models of different sizes on
// several goroutines at once, so the workspace pool hands storage between
// them and between shapes, and compares every result bit for bit with a
// solve of the same model run alone. The comparison runs after all solves
// have finished, so a Solution that aliased pooled storage would show the
// writes of later solves.
func TestConcurrentSolvesShareNoWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	models := make([]*Model, 8)
	want := make([]*Solution, len(models))
	for i := range models {
		models[i] = randomFlowModel(rng)
		sol, err := models[i].Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sol
	}
	const goroutines, rounds = 4, 12
	got := make([][]*Solution, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sol, err := models[(g+r)%len(models)].Solve(nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], sol)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for r, sol := range got[g] {
			ref := want[(g+r)%len(models)]
			assertBitIdentical(t, "concurrent vs alone", ref, sol)
			if !slices.Equal(ref.Basis.Status, sol.Basis.Status) || !slices.Equal(ref.ReducedObj, sol.ReducedObj) {
				t.Fatalf("goroutine %d round %d: basis or reduced costs differ", g, r)
			}
		}
	}
}

// TestResolveRecycledAllocs pins the buffer-reuse property of Model.Solve,
// one layer above TestSteadyStateIterationAllocs: once a solve has returned
// its workspace to the pool, a second solve of a same-shape model — the
// computational form and constraint matrix, the CSR mirror, the simplex
// buffers, the LU factors and the pattern workspace — must allocate only
// its Solution output (the Solution, X, Dual, ReducedObj, the Basis and
// its Status slice). A regression here puts every re-solve of the
// admission daemon back into the allocator.
func TestResolveRecycledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	rng := rand.New(rand.NewSource(12))
	m := randomFlowModel(rng)
	first, err := m.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts *Options
	}{
		{"cold", nil},
		{"warm", &Options{InitialBasis: first.Basis}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sol *Solution
			allocs := testing.AllocsPerRun(100, func() {
				var err error
				if sol, err = m.Solve(tc.opts); err != nil {
					t.Fatal(err)
				}
			})
			if sol.Status != Optimal || sol.Objective != first.Objective {
				t.Fatalf("re-solve: status %v objective %v, want optimal %v", sol.Status, sol.Objective, first.Objective)
			}
			// Six Solution allocations; the bound leaves room for one
			// stray allocation.
			const budget = 7
			t.Logf("allocs/solve: %.1f", allocs)
			if allocs > budget {
				t.Fatalf("re-solve allocates %.1f times, want <= %d", allocs, budget)
			}
		})
	}
}

// BenchmarkRefactorize times one in-place refactorization of an optimal
// basis of a 110-node min-cost-flow LP. B/op is the per-refactorization
// allocation, which the recycled LU keeps at zero.
func BenchmarkRefactorize(b *testing.B) {
	m := largeFlowModel(rand.New(rand.NewSource(131)))
	var w solveWork
	if err := m.buildCompForm(&w.cf); err != nil {
		b.Fatal(err)
	}
	opt := (*Options)(nil).withDefaults(w.cf.m, w.cf.n)
	w.cf.perturb(opt.Perturb)
	s := &w.s
	s.reset(&w.cf, opt)
	if err := s.coldStart(); err != nil {
		b.Fatal(err)
	}
	if _, err := s.run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.refactorize(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmResolve times a warm re-solve of the same 110-node
// min-cost-flow LP from its optimal basis, the shape of a republish that
// finds little to change. B/op is what one re-solve allocates: its
// Solution output, since every solver buffer comes from the pool.
func BenchmarkWarmResolve(b *testing.B) {
	m := largeFlowModel(rand.New(rand.NewSource(131)))
	sol, err := m.Solve(nil)
	if err != nil {
		b.Fatal(err)
	}
	opts := &Options{InitialBasis: sol.Basis}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// largeFlowModel builds a min-cost-flow LP on 110 nodes with about 35% arc
// density: over 4000 columns including slacks, large enough that the
// refactorization and re-solve benchmarks time real LU work.
func largeFlowModel(rng *rand.Rand) *Model {
	n := 110
	src, sink := 0, n-1
	demand := 1 + float64(rng.Intn(20))
	m := NewModel()
	type arc struct {
		from, to int
		v        VarID
	}
	var arcs []arc
	add := func(from, to int, cap, cost float64) {
		v := m.AddVariable(0, cap, cost, "")
		arcs = append(arcs, arc{from, to, v})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.35 {
				add(i, j, float64(1+rng.Intn(15)), float64(rng.Intn(10)))
			}
		}
	}
	add(src, sink, demand, 1000) // feasibility backstop, as in randomFlowModel
	for v := 0; v < n; v++ {
		var idx []VarID
		var val []float64
		for _, a := range arcs {
			if a.from == v {
				idx = append(idx, a.v)
				val = append(val, 1)
			}
			if a.to == v {
				idx = append(idx, a.v)
				val = append(val, -1)
			}
		}
		rhs := 0.0
		switch v {
		case src:
			rhs = demand
		case sink:
			rhs = -demand
		}
		if len(idx) == 0 {
			continue
		}
		if _, err := m.AddConstraint(EQ, rhs, idx, val); err != nil {
			panic(err)
		}
	}
	return m
}
