// Package backend holds the pluggable compute backends for the revised
// simplex's per-iteration hot kernels: the devex pricing scan, pivot-row
// assembly over the CSR mirror, the phase-1 dual-delta row walk, and
// speculative base FTRANs for runner-up pricing candidates.
//
// Two implementations exist. The serial backend is a verbatim port of the
// historical in-simplex loops and is the default. The parallel backend fans
// the same kernels across a persistent goroutine pool over disjoint column
// ranges and reduces deterministically, with a fixed tie-break on column
// index, so the pivot trajectory — and therefore every solver counter and
// solution byte — is identical to the serial backend for every worker
// count.
//
// The determinism contract every backend must satisfy:
//
//   - PriceDevex returns exactly the column the serial full scan returns:
//     the lowest-index column among those maximizing d_j²/γ_j (the scan
//     keeps the first strict maximum, so ties resolve to the lowest index;
//     a parallel reduction must merge range winners in ascending range
//     order with a strictly-greater comparison to reproduce that).
//   - PivotRow and DualDelta must accumulate each alpha[j] (resp. d[j]) in
//     ascending rhoIdx order, so floating-point sums are bit-identical to
//     the serial row walk. Partitioning by column ranges preserves this;
//     partitioning by rows would not.
//   - Speculate/Collect may only serve a base solve computed against the
//     factorization the caller presents now, keyed on the LU and its
//     generation (sparse.LU.Gen), not on the LU pointer alone: the simplex
//     refactorizes one LU in place, and every refactorization advances the
//     generation, so stale speculation invalidates itself. Because refactorizing in place
//     overwrites the factors a detached solve reads, the simplex calls Join
//     before every refactorization. A served result must be bit-identical
//     to a fresh LU.SolveSparseRHS of the same column, which holds because
//     the solve is a pure function of factors that do not change between
//     Speculate and Collect of the same generation.
//   - All counters must be independent of the worker count: fan-out
//     thresholds depend only on problem size, and the speculation batch is
//     a fixed K, so serial-vs-parallel table diffs are byte-empty.
package backend

import (
	"fmt"
	"runtime"

	"github.com/interdc/postcard/internal/lp/sparse"
)

// VStatus is the simplex status of one variable. The values mirror the
// solver's historical private constants so status slices pass through the
// seam without copying.
type VStatus byte

// Variable statuses.
const (
	Basic VStatus = iota + 1
	AtLower
	AtUpper
	Free // nonbasic free variable resting at zero
)

// SpecBatch is the fixed number of runner-up pricing candidates whose base
// FTRANs a backend may speculate per iteration. It is a constant — not a
// function of the worker count — so the SpecFtrans counter is identical
// for every pool size.
const SpecBatch = 4

// PriceInput bundles the read-only state of one devex pricing scan. All
// slices are owned by the caller and must not be written by the backend.
type PriceInput struct {
	D     []float64 // maintained reduced costs, length n+m
	W     []float64 // devex reference weights, length n+m
	Lo    []float64 // variable lower bounds
	Hi    []float64 // variable upper bounds
	VStat []VStatus // variable statuses
	Tol   float64   // optimality tolerance
}

// Counters is the per-backend instrumentation, threaded through
// Solution → core.Result → core.SolveStats. Every field is a monotone
// counter whose value is independent of the worker count.
type Counters struct {
	DevexScans    int // full devex pricing scans performed
	ParallelScans int // scans that fanned out across the worker pool
	SpecFtrans    int // speculative base FTRANs computed
	SpecFtranHits int // entering-column FTRANs served from the speculative cache
}

// Backend executes the simplex hot kernels. Implementations are bound to
// one solve's dimensions (m rows, total columns) and must be Closed when
// the solve finishes.
type Backend interface {
	// Name reports the registry name ("serial" or "parallel").
	Name() string
	// Workers reports the goroutine count kernels fan across (1 for serial).
	Workers() int

	// PriceDevex runs the full devex pricing scan and returns the entering
	// column (q == -1 at optimality), its maintained reduced cost, and the
	// movement direction. Implementations may additionally record runner-up
	// candidates for Speculate.
	PriceDevex(in *PriceInput) (q int, dq, dir float64)

	// PivotRow assembles alpha = rhoᵀA over the CSR row mirror: for every
	// row i in rhoIdx with rho[i] != 0, alpha[j] += rho[i]·a_ij. First
	// touches of a column j set mark[j], zero alpha[j], and append j to
	// idx; the grown idx is returned. alpha/mark are pattern-clean on
	// entry (the caller's clearAlpha invariant).
	PivotRow(at *sparse.CSR, rho []float64, rhoIdx []int, alpha []float64, mark []bool, idx []int) []int

	// DualDelta applies d[j] -= rho[i]·a_ij over the CSR rows in rhoIdx —
	// the phase-1 maintained-dual repair walk.
	DualDelta(at *sparse.CSR, rho []float64, rhoIdx []int, d []float64)

	// Speculate starts batched base solves B⁻¹a_j for the runner-up
	// candidates of the most recent PriceDevex call, excluding column
	// skip, against the current factorization in lu, recording its
	// generation. It must not block on the solves. Serial backends may
	// make it a no-op.
	Speculate(lu *sparse.LU, a *sparse.Matrix, limit, skip int)

	// Collect returns the speculative base solve of column q if one was
	// computed against lu at its current generation. On a hit with sparseOK, x
	// holds values at the positions listed in pat (other positions
	// untouched since the slot was zeroed); with !sparseOK, x is the
	// fully-written dense result. The returned slices are valid until the
	// next Speculate call.
	Collect(q int, lu *sparse.LU) (x []float64, pat []int, sparseOK, hit bool)

	// Join waits until no speculative solve is running. The caller must
	// Join before it overwrites the factors or the constraint matrix that
	// a Speculate call was given.
	Join()

	// Counters returns the accumulated instrumentation.
	Counters() Counters

	// Close releases pool resources. The backend must not be used after.
	Close()
}

// New builds the named backend for an m-row solve with total columns.
// Valid names are "" (serial), "serial", and "parallel"; workers <= 0
// selects GOMAXPROCS. The worker count only affects wall-clock: results
// and counters are bit-identical across counts.
func New(name string, workers, m, total int) (Backend, error) {
	switch name {
	case "", NameSerial:
		return &serial{}, nil
	case NameParallel:
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		return newParallel(workers, m, total), nil
	default:
		return nil, fmt.Errorf("lp: unknown backend %q (known: %s, %s)", name, NameSerial, NameParallel)
	}
}

// Backend registry names.
const (
	NameSerial   = "serial"
	NameParallel = "parallel"
)

// Names lists the registered backend names.
func Names() []string { return []string{NameSerial, NameParallel} }

// cand is one pricing candidate: its devex score, column, maintained
// reduced cost, and movement direction.
type cand struct {
	score   float64
	j       int
	dj, dir float64
}

// scanRange is the devex pricing kernel over columns [lo, hi): the exact
// loop the simplex historically ran over the full range. It returns the
// first strict maximizer of d_j²/γ_j within the range (score zero, j == -1
// when no candidate qualifies) and, when top is non-nil, records the
// range's best SpecBatch candidates.
func scanRange(in *PriceInput, lo, hi int, top *topK) cand {
	best := cand{j: -1}
	tol := in.Tol
	for j := lo; j < hi; j++ {
		st := in.VStat[j]
		if st == Basic || in.Lo[j] == in.Hi[j] {
			continue
		}
		dj := in.D[j]
		var cdir float64
		switch st {
		case AtLower:
			if dj >= -tol {
				continue
			}
			cdir = 1
		case AtUpper:
			if dj <= tol {
				continue
			}
			cdir = -1
		default: // Free
			if dj < -tol {
				cdir = 1
			} else if dj > tol {
				cdir = -1
			} else {
				continue
			}
		}
		score := dj * dj / in.W[j]
		if score > best.score {
			best = cand{score: score, j: j, dj: dj, dir: cdir}
		}
		if top != nil {
			top.offer(cand{score: score, j: j, dj: dj, dir: cdir})
		}
	}
	return best
}

// topK keeps the SpecBatch best candidates seen so far, ordered by
// descending score with ties broken toward the lower column index (offers
// arrive in ascending column order and equal scores never displace or pass
// an incumbent, which realizes that tie-break without comparing indices).
type topK struct {
	n int
	c [SpecBatch]cand
}

func (t *topK) reset() { t.n = 0 }

func (t *topK) offer(x cand) {
	if t.n < len(t.c) {
		t.c[t.n] = x
		t.n++
	} else if t.c[t.n-1].score < x.score {
		t.c[t.n-1] = x
	} else {
		return
	}
	for i := t.n - 1; i > 0 && t.c[i-1].score < t.c[i].score; i-- {
		t.c[i-1], t.c[i] = t.c[i], t.c[i-1]
	}
}

// pivotRowSerial is the historical pivot-row assembly walk, shared by the
// serial backend and the parallel backend's small-problem path.
func pivotRowSerial(at *sparse.CSR, rho []float64, rhoIdx []int, alpha []float64, mark []bool, idx []int) []int {
	for _, i := range rhoIdx {
		ri := rho[i]
		if ri == 0 {
			continue
		}
		cols, vals := at.RowSlices(i)
		for p, j := range cols {
			if !mark[j] {
				mark[j] = true
				idx = append(idx, j)
				alpha[j] = 0
			}
			alpha[j] += ri * vals[p]
		}
	}
	return idx
}

// dualDeltaSerial is the historical phase-1 dual repair walk.
func dualDeltaSerial(at *sparse.CSR, rho []float64, rhoIdx []int, d []float64) {
	for _, i := range rhoIdx {
		vi := rho[i]
		if vi == 0 {
			continue
		}
		cols, vals := at.RowSlices(i)
		for p, j := range cols {
			d[j] -= vi * vals[p]
		}
	}
}
