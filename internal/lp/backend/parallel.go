package backend

import (
	"sort"
	"sync"

	"github.com/interdc/postcard/internal/lp/sparse"
)

// Fan-out thresholds. Both depend only on problem size — never on the
// worker count — so whether a kernel ran parallel (and every counter that
// records it) is identical for every pool size.
const (
	// minParallelCols is the column count below which the pricing scan,
	// pivot-row assembly, and dual-delta walk stay on the calling
	// goroutine: the dispatch handshake costs more than the scan.
	minParallelCols = 4096
	// minFanRows is the BTRAN pattern size below which the CSR row walks
	// stay serial: a near-empty rho touches too few entries to split.
	minFanRows = 8
)

// job is one unit of pool work: a kernel kind plus a worker or slot index.
type job struct {
	kind int8
	idx  int
}

const (
	jobScan int8 = iota + 1
	jobPivotRow
	jobDualDelta
	jobSpec
)

// specSlot holds one speculative base FTRAN: the column, the LU and the
// generation of the factorization it was computed against, a private
// workspace, and the result in the slot-owned dense buffer x (pattern pat
// on the sparse path).
type specSlot struct {
	col   int
	lu    *sparse.LU
	gen   uint64
	a     *sparse.Matrix
	limit int
	x     []float64
	pat   []int
	ok    bool
	done  bool // base solve has run (always true for eager batches)
	ws    sparse.PatternWorkspace
}

// parallel fans the simplex hot kernels across a persistent goroutine
// pool. All dispatch state is preallocated in newParallel, so steady-state
// kernel calls allocate nothing; synchronous kernels join on scanWG before
// returning, while speculative FTRANs run detached under specWG and join
// lazily at the next Collect or Speculate.
type parallel struct {
	workers int
	m       int
	total   int
	lazy    bool  // single-worker pool: kernels run inline, speculation defers to Collect
	ranges  []int // workers+1 column-range boundaries

	jobs   chan job
	scanWG sync.WaitGroup
	specWG sync.WaitGroup
	closed bool

	// pricing scan state
	in      *PriceInput
	best    []cand // per-worker range winner
	top     []topK // per-worker runner-up candidates
	merge   []cand // runner merge buffer, cap workers*SpecBatch
	runners [SpecBatch]int
	runnerN int

	// pivot-row / dual-delta state
	at     *sparse.CSR
	rho    []float64
	rhoIdx []int
	alpha  []float64
	mark   []bool
	seg    [][]int // per-worker alphaIdx segments
	d      []float64

	// speculation state
	spec  [SpecBatch]specSlot
	specN int

	counters Counters
}

func newParallel(workers, m, total int) *parallel {
	p := &parallel{
		workers: workers,
		m:       m,
		total:   total,
		lazy:    workers == 1,
		ranges:  make([]int, workers+1),
		jobs:    make(chan job, workers+SpecBatch),
		best:    make([]cand, workers),
		top:     make([]topK, workers),
		merge:   make([]cand, 0, workers*SpecBatch),
		seg:     make([][]int, workers),
	}
	for w := 0; w <= workers; w++ {
		p.ranges[w] = w * total / workers
	}
	for w := 0; w < workers; w++ {
		width := p.ranges[w+1] - p.ranges[w]
		p.seg[w] = make([]int, 0, width)
	}
	for i := range p.spec {
		p.spec[i].x = make([]float64, m)
		p.spec[i].ws.Ensure(m)
		p.spec[i].ok = true // empty slot: nothing to zero on first reuse
	}
	// A single-worker pool never overlaps anything; running its kernels
	// inline on the caller (see dispatch) skips the goroutine and the
	// per-kernel channel handshake entirely.
	if !p.lazy {
		for w := 0; w < workers; w++ {
			go p.worker()
		}
	}
	return p
}

func (p *parallel) Name() string { return NameParallel }

func (p *parallel) Workers() int { return p.workers }

func (p *parallel) worker() {
	for jb := range p.jobs {
		switch jb.kind {
		case jobScan:
			p.best[jb.idx] = scanRange(p.in, p.ranges[jb.idx], p.ranges[jb.idx+1], &p.top[jb.idx])
			p.scanWG.Done()
		case jobPivotRow:
			p.pivotRowRange(jb.idx)
			p.scanWG.Done()
		case jobDualDelta:
			p.dualDeltaRange(jb.idx)
			p.scanWG.Done()
		case jobSpec:
			sl := &p.spec[jb.idx]
			idx, val := sl.a.ColumnSlices(sl.col)
			sl.pat, sl.ok = sl.lu.SolveSparseRHS(idx, val, sl.x, &sl.ws, sl.limit)
			p.specWG.Done()
		}
	}
}

// dispatch fans one synchronous kernel across every worker and joins. A
// single-worker pool runs its one range inline on the caller — same code,
// same single range [0, total), no handshake — so the kernel's result (and
// every counter recorded by the caller) is identical either way.
func (p *parallel) dispatch(kind int8) {
	if p.lazy {
		switch kind {
		case jobScan:
			p.best[0] = scanRange(p.in, p.ranges[0], p.ranges[1], &p.top[0])
		case jobPivotRow:
			p.pivotRowRange(0)
		case jobDualDelta:
			p.dualDeltaRange(0)
		}
		return
	}
	p.scanWG.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.jobs <- job{kind: kind, idx: w}
	}
	p.scanWG.Wait()
}

func (p *parallel) PriceDevex(in *PriceInput) (q int, dq, dir float64) {
	p.counters.DevexScans++
	if p.total < minParallelCols {
		// Too small to amortize the handshake; same scan, same runners, on
		// the calling goroutine. The threshold is size-only, so this branch
		// — and every counter — is taken identically for any worker count.
		p.top[0].reset()
		best := scanRange(in, 0, p.total, &p.top[0])
		p.mergeRunners(1)
		return best.j, best.dj, best.dir
	}
	p.counters.ParallelScans++
	for w := 0; w < p.workers; w++ {
		p.top[w].reset()
	}
	p.in = in
	p.dispatch(jobScan)
	// Deterministic arg-max reduction: range winners merge in ascending
	// range order under a strictly-greater comparison, reproducing the
	// serial scan's lowest-index tie-break exactly.
	best := cand{j: -1}
	for w := 0; w < p.workers; w++ {
		if p.best[w].j >= 0 && p.best[w].score > best.score {
			best = p.best[w]
		}
	}
	p.mergeRunners(p.workers)
	return best.j, best.dj, best.dir
}

// mergeRunners reduces the per-worker top-K lists into the global runner
// list: every range's top SpecBatch contains the global top SpecBatch, so
// sorting the union by (score desc, column asc) and truncating yields a
// result independent of how the ranges were cut.
func (p *parallel) mergeRunners(workers int) {
	buf := p.merge[:0]
	for w := 0; w < workers; w++ {
		buf = append(buf, p.top[w].c[:p.top[w].n]...)
	}
	for i := 1; i < len(buf); i++ {
		x := buf[i]
		k := i
		for k > 0 && (buf[k-1].score < x.score || (buf[k-1].score == x.score && buf[k-1].j > x.j)) {
			buf[k] = buf[k-1]
			k--
		}
		buf[k] = x
	}
	p.merge = buf
	n := len(buf)
	if n > SpecBatch {
		n = SpecBatch
	}
	for i := 0; i < n; i++ {
		p.runners[i] = buf[i].j
	}
	p.runnerN = n
}

func (p *parallel) pivotRowRange(w int) {
	lo, hi := p.ranges[w], p.ranges[w+1]
	seg := p.seg[w][:0]
	for _, i := range p.rhoIdx {
		ri := p.rho[i]
		if ri == 0 {
			continue
		}
		cols, vals := p.at.RowSlices(i)
		for c := sort.SearchInts(cols, lo); c < len(cols) && cols[c] < hi; c++ {
			j := cols[c]
			if !p.mark[j] {
				p.mark[j] = true
				seg = append(seg, j)
				p.alpha[j] = 0
			}
			p.alpha[j] += ri * vals[c]
		}
	}
	p.seg[w] = seg
}

func (p *parallel) dualDeltaRange(w int) {
	lo, hi := p.ranges[w], p.ranges[w+1]
	for _, i := range p.rhoIdx {
		vi := p.rho[i]
		if vi == 0 {
			continue
		}
		cols, vals := p.at.RowSlices(i)
		for c := sort.SearchInts(cols, lo); c < len(cols) && cols[c] < hi; c++ {
			p.d[cols[c]] -= vi * vals[c]
		}
	}
}

// PivotRow partitions by column ranges, never by rows: each worker walks
// all of rhoIdx in order and binary-searches its column sub-range within
// each CSR row, so every alpha[j] accumulates its terms in exactly the
// serial order and the floating-point result is bit-identical. Only the
// order of alphaIdx differs (worker segments concatenate in range order),
// which no consumer depends on — the devex weight and reduced-cost updates
// are independent per column and the ratio test reads the FTRAN pattern,
// not alpha.
func (p *parallel) PivotRow(at *sparse.CSR, rho []float64, rhoIdx []int, alpha []float64, mark []bool, idx []int) []int {
	if len(rhoIdx) < minFanRows || p.total < minParallelCols {
		return pivotRowSerial(at, rho, rhoIdx, alpha, mark, idx)
	}
	p.at, p.rho, p.rhoIdx, p.alpha, p.mark = at, rho, rhoIdx, alpha, mark
	p.dispatch(jobPivotRow)
	for w := 0; w < p.workers; w++ {
		idx = append(idx, p.seg[w]...)
	}
	return idx
}

func (p *parallel) DualDelta(at *sparse.CSR, rho []float64, rhoIdx []int, d []float64) {
	if len(rhoIdx) < minFanRows || p.total < minParallelCols {
		dualDeltaSerial(at, rho, rhoIdx, d)
		return
	}
	p.at, p.rho, p.rhoIdx, p.d = at, rho, rhoIdx, d
	p.dispatch(jobDualDelta)
}

// Speculate launches detached base solves for the most recent scan's
// runner-up candidates (minus the column that actually entered). The jobs
// only read the factors and constraint matrix and write slot-private
// buffers, so they overlap safely with the caller's ratio test and pivot.
// A refactorization rewrites the factors in place, so the caller Joins
// first; the new generation it issues then invalidates the batch through
// Collect's generation check.
//
// A single-worker pool has no spare core to burn on misses, so it records
// the batch without solving and Collect runs the solve only when the
// candidate actually enters ("lazy" mode). A lazy hit computes the exact
// same SolveSparseRHS against the same LU, and both SpecFtrans (counted at
// issue) and SpecFtranHits (the hit condition never reads the result) are
// unchanged — so counters and solution bytes stay identical to every other
// worker count; only the wasted work disappears.
func (p *parallel) Speculate(lu *sparse.LU, a *sparse.Matrix, limit, skip int) {
	if p.runnerN == 0 {
		return
	}
	p.specWG.Wait() // join the previous batch before reusing its slots
	n := 0
	for i := 0; i < p.runnerN && n < len(p.spec); i++ {
		col := p.runners[i]
		if col == skip {
			continue
		}
		sl := &p.spec[n]
		// Restore the slot's all-zero dst invariant from the previous solve.
		if sl.ok {
			for _, k := range sl.pat {
				sl.x[k] = 0
			}
		} else {
			for k := range sl.x {
				sl.x[k] = 0
			}
		}
		sl.col, sl.lu, sl.gen, sl.a, sl.limit = col, lu, lu.Gen(), a, limit
		sl.pat, sl.ok, sl.done = nil, true, !p.lazy
		n++
	}
	p.specN = n
	p.counters.SpecFtrans += n
	if p.lazy {
		return
	}
	p.specWG.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- job{kind: jobSpec, idx: i}
	}
}

func (p *parallel) Collect(q int, lu *sparse.LU) (x []float64, pat []int, sparseOK, hit bool) {
	if p.specN == 0 {
		return nil, nil, false, false
	}
	p.specWG.Wait()
	for i := 0; i < p.specN; i++ {
		sl := &p.spec[i]
		if sl.col == q && sl.lu == lu && sl.gen == lu.Gen() {
			p.counters.SpecFtranHits++
			if !sl.done {
				// Lazy hit: run the deferred base solve now. Identical
				// inputs, identical factors — bit-identical result.
				idx, val := sl.a.ColumnSlices(sl.col)
				sl.pat, sl.ok = sl.lu.SolveSparseRHS(idx, val, sl.x, &sl.ws, sl.limit)
				sl.done = true
			}
			return sl.x, sl.pat, sl.ok, true
		}
	}
	return nil, nil, false, false
}

func (p *parallel) Join() { p.specWG.Wait() }

func (p *parallel) Counters() Counters { return p.counters }

func (p *parallel) Close() {
	if p.closed {
		return
	}
	p.closed = true
	p.specWG.Wait()
	close(p.jobs)
}
