package backend

import "github.com/interdc/postcard/internal/lp/sparse"

// serial is the default backend: the simplex hot kernels exactly as they
// ran before the backend seam existed, on the calling goroutine. It never
// speculates, so Collect always misses and ftran performs the same base
// solve, in the same place, as the pre-seam solver.
type serial struct {
	counters Counters
}

func (s *serial) Name() string { return NameSerial }

func (s *serial) Workers() int { return 1 }

func (s *serial) PriceDevex(in *PriceInput) (q int, dq, dir float64) {
	s.counters.DevexScans++
	best := scanRange(in, 0, len(in.D), nil)
	return best.j, best.dj, best.dir
}

func (s *serial) PivotRow(at *sparse.CSR, rho []float64, rhoIdx []int, alpha []float64, mark []bool, idx []int) []int {
	return pivotRowSerial(at, rho, rhoIdx, alpha, mark, idx)
}

func (s *serial) DualDelta(at *sparse.CSR, rho []float64, rhoIdx []int, d []float64) {
	dualDeltaSerial(at, rho, rhoIdx, d)
}

func (s *serial) Speculate(lu *sparse.LU, a *sparse.Matrix, limit, skip int) {}

func (s *serial) Collect(q int, lu *sparse.LU) (x []float64, pat []int, sparseOK, hit bool) {
	return nil, nil, false, false
}

func (s *serial) Join() {}

func (s *serial) Counters() Counters { return s.counters }

func (s *serial) Close() {}
