package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
	"github.com/interdc/postcard/internal/workload"
)

// commit-batch-16dc: the daemon's slot-commit pipeline under closed-loop
// batches. The run is split into episodes of batchSlots slots, each on a
// fresh daemon with its own derived seed, so per-slot work stays stationary
// and one hard seed does not decide the whole run.
const (
	batchDCs    = 16
	batchLambda = 40.0 // files per slot, Poisson
	batchSlots  = 50   // slots per episode
	batchMaxT   = 3    // deadlines U[1,3] (Fig 4 setting)

	// batchPriceSeed fixes the price sheet of every episode, as in
	// admit-open-8dc; the episode seeds draw the traffic. With per-episode
	// prices, the price sheet decided much of the spread of cost and CPU
	// time per file between runs.
	batchPriceSeed = 2012

	// The first fullEpisodes episodes always run to their end, and a
	// traced run replays them through the library: 100 slots, enough for a
	// p90 of republish time whatever one slot's LP costs.
	fullEpisodes = 2
)

// episode is what one daemon decided and committed.
type episode struct {
	seed  int64
	slots [][]decided
	costs []float64 // daemon's cost per slot after each commit
}

func batchNetwork() (*netmodel.Network, error) {
	return netmodel.Complete(batchDCs, workload.UniformPrices(batchPriceSeed), netmodel.EvalAmpleCapacity)
}

func episodeFiles(seed int64) ([][]netmodel.File, error) {
	gen, err := workload.NewPoisson(workload.PoissonConfig{
		Uniform: workload.UniformConfig{
			NumDCs: batchDCs, MinSizeGB: 10, MaxSizeGB: 100, MaxDeadline: batchMaxT, Seed: seed,
		},
		Lambda: batchLambda,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]netmodel.File, batchSlots)
	for s := range out {
		out[s] = gen.FilesAt(s)
	}
	return out, nil
}

func startBatchDaemon(tr *tracer) (*daemon, error) {
	nw, err := batchNetwork()
	if err != nil {
		return nil, err
	}
	cfg := serverConfig(nw)
	cfg.RepublishOnCommitOnly = true
	return startDaemon(cfg, 1, tr)
}

func runCommitBatch(rc runConfig) (*outcome, error) {
	out := newOutcome()
	epSeed := func(ep int) int64 { return rc.seed*1000 + int64(ep) }

	setups, err := timeSetups(daemonSetupReps, func() (*daemon, error) { return startBatchDaemon(nil) })
	if err != nil {
		return nil, err
	}
	var d *daemon
	var (
		admitMS, readMS, commitMS  []float64
		under10, rejects, admitted int
		attempted                  int
		measured                   time.Duration
		units                      []unit
		solver                     core.SolveStats
		slotsDone                  int
		last                       server.Status
		episodes                   []*episode
		req                        int64
	)
	// timed sends one request in the closed loop: due when sent, timed to
	// its answer, with a client span around the handler's in a traced run.
	timed := func(name string, send func(parent, req int64)) float64 {
		start := time.Now()
		var id int64
		if rc.tr != nil {
			id = rc.tr.reserve()
			req++
		}
		send(id, req)
		end := time.Now()
		if rc.tr != nil {
			rc.tr.addWithID(id, name, 0, req, start, end)
		}
		return ms(end.Sub(start))
	}

	mem := startMem()
	// The first episodes always run to the end: one slot's LP can take
	// longer than the whole run, and the medians need slots to stand on.
	for ep := 0; ep < fullEpisodes || measured < rc.seconds; ep++ {
		if d == nil {
			var err error
			if d, err = startBatchDaemon(rc.tr); err != nil {
				return nil, err
			}
		}
		files, err := episodeFiles(epSeed(ep))
		if err != nil {
			return nil, err
		}
		e := &episode{seed: epSeed(ep)}
		for slot := 0; slot < batchSlots && (ep < fullEpisodes || measured < rc.seconds); slot++ {
			slotStart, cpu0 := time.Now(), cpuTime()
			var batch []decided
			slotRejects := 0
			for _, f := range files[slot] {
				attempted++
				var resp *server.TransferResponse
				lat := timed("loadgen.admit", func(parent, req int64) {
					_, resp, err = d.admit(f, parent, req)
				})
				admitMS = append(admitMS, lat)
				if err != nil {
					out.fail("episode %d slot %d admit: %v", ep, slot, err)
					continue
				}
				if lat <= 10 {
					under10++
				}
				if resp.Admitted {
					admitted++
				} else {
					rejects++
					slotRejects++
				}
				f.ID, f.Release = resp.ID, resp.Slot
				if resp.Slot != slot {
					out.fail("episode %d: admit landed in slot %d during slot %d", ep, resp.Slot, slot)
				}
				batch = append(batch, decided{file: f, admitted: resp.Admitted})
			}
			attempted += 2
			var next int
			commitMS = append(commitMS, timed("loadgen.advance", func(parent, req int64) {
				_, next, err = d.advance(parent, req)
			}))
			if err == nil && next != slot+1 {
				err = fmt.Errorf("moved to slot %d", next)
			}
			if err != nil {
				out.fail("episode %d close %d: %v", ep, slot, err)
			}
			var st server.Status
			readMS = append(readMS, timed("loadgen.read", func(parent, req int64) {
				_, err = d.getJSON("/v1/status", &st, parent, req)
			}))
			if err != nil {
				out.fail("episode %d status: %v", ep, err)
			}
			u := unit{files: len(batch) - slotRejects, wall: time.Since(slotStart), cpu: cpuTime() - cpu0}
			measured += u.wall
			units = append(units, u)
			e.slots = append(e.slots, batch)
			e.costs = append(e.costs, st.CostPerSlot)
			last = st
		}
		slotsDone += len(e.slots)
		solver = solver.Add(last.Solver)
		reads := checkEpisode(d, e, out, timed)
		readMS = append(readMS, reads...)
		attempted += len(reads)
		episodes = append(episodes, e)
		if err := d.close(); err != nil {
			out.fail("episode %d: closing daemon: %v", ep, err)
		}
		d = nil
	}
	mem.record(out.layer)

	e := out.e2e
	e.pct("admit_p50_ms", "ms", admitMS, 0.5)
	e.pct("admit_p99_ms", "ms", admitMS, 0.99)
	e.put("admit_under_10ms_frac", "fraction", ratio(float64(under10), float64(len(admitMS))), len(admitMS))
	e.pct("read_p99_ms", "ms", readMS, 0.99)
	e.pct("commit_p50_ms", "ms", commitMS, 0.5)
	e.pct("commit_p90_ms", "ms", commitMS, 0.9)
	recordRates(e, units)
	e.absent("figure_s", "s", "no figure in this workload")
	// Costs are means over the episodes that always run to their end.
	var perSlot, perGB []float64
	fullAdmitted := 0
	for _, ep := range episodes[:fullEpisodes] {
		gb := 0.0
		for _, batch := range ep.slots {
			for _, dc := range batch {
				if dc.admitted {
					gb += dc.file.Size
					fullAdmitted++
				}
			}
		}
		last := ep.costs[len(ep.costs)-1]
		perSlot = append(perSlot, last)
		perGB = append(perGB, costPerGB(last, len(ep.costs), gb))
	}
	e.put("cost_per_slot", "cost", mean(perSlot), fullEpisodes*batchSlots)
	e.put("cost_per_gb", "cost/GB", mean(perGB), fullAdmitted)
	e.put("reject_frac", "fraction", ratio(float64(rejects), float64(len(admitMS))), len(admitMS))
	out.attempt(attempted)

	l := out.layer
	l.absent("loadgen.late_p99_ms", "ms", "closed loop: no schedule to run late against")
	if rc.tr != nil {
		recordHTTP(l, rc.tr.snapshot())
		l.put("server.republishes_per_commit", "count", ratio(float64(solver.Solves), float64(slotsDone)), slotsDone)
		l.put("server.plans_retained", "count", float64(last.Plans), 0)
		recordSolver(l, solver)
		st := replayEpisodes(episodes, rc, out)
		// The replay covers only the first episodes; its LP time is set
		// against the measured time of the slots it replayed.
		st.record(l, time.Duration(float64(measured)*ratio(float64(len(st.costs)), float64(slotsDone))))
	}
	out.common(setups, attempted)
	return out, nil
}

// checkEpisode reads every admitted plan of the episode back over HTTP,
// after the measured loop, and replays them through the verifier; the
// verifier's ledger must cost what the daemon reported after each commit.
// It returns the latency of each read, sent through timed.
func checkEpisode(d *daemon, e *episode, out *outcome, timed func(string, func(parent, req int64)) float64) []float64 {
	plans := newPlanSet()
	var reads []float64
	for _, batch := range e.slots {
		for _, dc := range batch {
			if !dc.admitted {
				continue
			}
			var rec server.PlanRecord
			var err error
			reads = append(reads, timed("loadgen.read", func(parent, req int64) {
				_, err = d.getJSON("/v1/plans/"+strconv.Itoa(dc.file.ID), &rec, parent, req)
			}))
			if err != nil {
				out.fail("episode seed %d: read plan %d: %v", e.seed, dc.file.ID, err)
				continue
			}
			if err := checkPlan(&rec, dc.file); err != nil {
				out.fail("episode seed %d: %v", e.seed, err)
				continue
			}
			plans.add(&rec)
		}
	}
	nw, err := batchNetwork()
	if err != nil {
		out.fail("%v", err)
		return reads
	}
	costs, err := plans.verifyCommitted(nw, len(e.slots))
	if err != nil {
		out.fail("episode seed %d: read-back plans: %v", e.seed, err)
		return reads
	}
	for s, c := range costs {
		if !sameCost(c, e.costs[s]) {
			out.fail("episode seed %d slot %d: read-back plans cost %.9g per slot, daemon reported %.9g", e.seed, s, c, e.costs[s])
			break
		}
	}
	return reads
}

// replayEpisodes replays the first fullEpisodes episodes through the
// library. The daemon runs this config's exact solve sequence, so every
// decision and every per-slot cost must match it.
func replayEpisodes(episodes []*episode, rc runConfig, out *outcome) *replayStats {
	st := &replayStats{}
	for _, e := range episodes[:fullEpisodes] {
		nw, err := batchNetwork()
		if err != nil {
			out.fail("%v", err)
			return st
		}
		before := len(st.costs)
		if err := replay(nw, e.slots, false, rc.tr, st); err != nil {
			out.fail("episode seed %d: %v", e.seed, err)
			return st
		}
		for s, c := range st.costs[before:] {
			if c != e.costs[s] {
				out.fail("episode seed %d slot %d: daemon cost %.17g per slot, library replay %.17g", e.seed, s, e.costs[s], c)
				break
			}
		}
	}
	if st.mismatches > 0 {
		out.fail("library replay decided %d admits differently from the daemon", st.mismatches)
	}
	return st
}
