package lp

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/interdc/postcard/internal/lp/backend"
)

// TestInPlaceRefactorParallelBitIdentity pins the parallel backend's
// speculation contract under in-place refactorization. With RefactorEvery
// 2 a refactorization lands between nearly every Speculate and the next
// Collect, so the LU that a speculative batch was computed against is
// overwritten while the batch is outstanding (and, with more than one
// worker, possibly still running). The simplex must join the batch before
// refactorizing and Collect must reject results of a retired generation;
// a backend that keyed speculation on the LU pointer alone would serve
// stale base solves here (a mismatch) or race the refactorization (caught
// under -race).
func TestInPlaceRefactorParallelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	solve := func(m *Model, name string, workers int) *Solution {
		t.Helper()
		sol, err := m.Solve(&Options{Backend: name, BackendWorkers: workers, RefactorEvery: 2})
		if err != nil {
			t.Fatalf("Solve(backend=%s, workers=%d): %v", name, workers, err)
		}
		return sol
	}
	specs := 0
	for trial := 0; trial < 25; trial++ {
		m := randomFlowModel(rng)
		ref := solve(m, backend.NameSerial, 1)
		for _, w := range []int{1, 2, 4} {
			got := solve(m, backend.NameParallel, w)
			assertBitIdentical(t, "in-place refactor: serial vs parallel", ref, got)
			specs += got.SpecFtrans
		}
	}
	if specs == 0 {
		t.Fatal("no speculative FTRANs were issued; the test exercised nothing")
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
		want[i] = solveWithBackend(t, models[i], backend.NameSerial, 1)
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
// its Status slice) plus the serial backend. A regression here puts every
// re-solve of the admission daemon back into the allocator.
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
			// Six Solution allocations plus the serial backend; the bound
			// leaves room for one stray allocation.
			const budget = 8
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
	be, err := backend.New(opt.Backend, opt.BackendWorkers, w.cf.m, w.cf.n+w.cf.m)
	if err != nil {
		b.Fatal(err)
	}
	defer be.Close()
	s := &w.s
	s.reset(&w.cf, opt, be)
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
