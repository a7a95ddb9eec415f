package main

import (
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/server"
)

// recordSolver writes the core and lp layer metrics from a SolveStats
// delta. Counts are per LP solve, so they do not grow with run length.
func recordSolver(r *report, s core.SolveStats) {
	solves := float64(s.Solves)
	r.put("core.lp_iters", "count", ratio(float64(s.Iterations), solves), s.Solves)
	r.put("core.phase1_frac", "fraction", ratio(float64(s.Phase1Iter), float64(s.Iterations)), 0)
	r.put("core.pruned_frac", "fraction", ratio(float64(s.PrunedVars), float64(s.VarUniverse+s.PrunedVars)), 0)
	r.put("core.colgen_rounds", "count", ratio(float64(s.ColGenRounds), solves), s.Solves)
	r.put("core.colgen_gen_frac", "fraction", ratio(float64(s.ColGenColumns), float64(s.ColGenUniverse)), 0)
	r.put("core.warm_frac", "fraction", ratio(float64(s.WarmSolves), solves), s.Solves)
	r.put("core.graph_reuse_frac", "fraction", ratio(float64(s.GraphReuses), solves), s.Solves)
	r.put("lp.sparse_hit_frac", "fraction", ratio(float64(s.SparseSolves), float64(s.SparseSolves+s.DenseSolves)), 0)
	r.put("lp.solve_density", "fraction", ratio(float64(s.SolveNNZ), float64(s.SolveDim)), 0)
	r.put("lp.dual_recomputes", "count", ratio(float64(s.DualRecomputes), solves), s.Solves)
	r.put("lp.devex_resets", "count", ratio(float64(s.DevexResets), solves), s.Solves)
}

// recordServer writes the server layer metrics from the daemon's final
// status: LP solves per committed slot (solves beyond one per slot are
// republishes whose plan the next one replaced) and plans retained.
func recordServer(r *report, st server.Status) {
	r.put("server.republishes_per_commit", "count", ratio(float64(st.Solver.Solves), float64(st.SlotsAdvanced)), st.SlotsAdvanced)
	r.put("server.plans_retained", "count", float64(st.Plans), 0)
}

// recordHTTP writes the http layer metrics from the handler spans and the
// client spans that caused them. Only spans with a client parent count;
// the set-up readiness probe has none.
func recordHTTP(r *report, spans []span) {
	self := selfTimes(spans)
	var admit, read, advance, outside []float64
	for _, s := range spans {
		switch s.Name {
		case "http.admit":
			if s.Parent != 0 {
				admit = append(admit, float64(s.dur())/1e6)
			}
		case "http.read":
			if s.Parent != 0 {
				read = append(read, float64(s.dur())/1e6)
			}
		case "http.advance":
			if s.Parent != 0 {
				advance = append(advance, float64(s.dur())/1e6)
			}
		case "loadgen.admit":
			outside = append(outside, float64(self[s.ID])/1e6)
		}
	}
	r.pct("http.admit_p50_ms", "ms", admit, 0.5)
	r.pct("http.admit_p99_ms", "ms", admit, 0.99)
	r.pct("http.read_p99_ms", "ms", read, 0.99)
	r.pct("http.advance_p50_ms", "ms", advance, 0.5)
	r.pct("http.outside_p50_ms", "ms", outside, 0.5)
}
