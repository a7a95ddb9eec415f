package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/server"
	"github.com/interdc/postcard/internal/workload"
)

// admit-open-8dc: the daemon on its default path, under open-loop load.
const (
	openDCs      = 8
	openRate     = 40.0                   // admits per second, Poisson
	openSlot     = 500 * time.Millisecond // the generator closes a slot this often
	openConns    = 2                      // client connections (at most nproc)
	openMaxT     = 3                      // deadlines U[1,3] (Fig 4 setting)
	openScrape   = time.Second            // GET /metrics period
	openWindow   = 10                     // slots per unit of CPU per file: 6 units in 30 s
	maxLateP99MS = 25.0                   // generator lateness beyond which a run is invalid

	// openPriceSeed fixes the daemon's price sheet, as an operator's
	// instance file does; --seed draws the traffic. Per-seed prices made
	// the link prices, not the program, decide most of the spread of
	// cost_per_slot between runs.
	openPriceSeed = 2012
)

// drawFile draws a transfer with the paper's uniform marginals: distinct
// endpoints, size U[10, 100] GB, deadline U{1..maxT}.
func drawFile(rng *rand.Rand, dcs, maxT int) netmodel.File {
	src := rng.Intn(dcs)
	dst := (src + 1 + rng.Intn(dcs-1)) % dcs
	return netmodel.File{
		Src:      netmodel.DC(src),
		Dst:      netmodel.DC(dst),
		Size:     10 + 90*rng.Float64(),
		Deadline: 1 + rng.Intn(maxT),
	}
}

// lateness is the generator's p99 lateness in ms, or its maximum when the
// run is too short for a p99.
func lateness(lateMS []float64) float64 {
	if v, err := percentile(lateMS, 0.99); err == nil {
		return v
	}
	worst := 0.0
	for _, l := range lateMS {
		worst = max(worst, l)
	}
	return worst
}

// admitAnswer is what the daemon said about one admit.
type admitAnswer struct {
	done     chan struct{} // closed once the answer (or error) is in
	ok       bool          // answered 200 or 422
	admitted bool
	id, slot int
}

func runAdmitOpen(rc runConfig) (*outcome, error) {
	out := newOutcome()
	newNetwork := func() (*netmodel.Network, error) {
		return netmodel.Complete(openDCs, workload.UniformPrices(openPriceSeed), netmodel.EvalAmpleCapacity)
	}

	// Inputs: Poisson arrival times and file shapes, all from the seed.
	rng := rand.New(rand.NewSource(rc.seed))
	var arrivals []time.Duration
	var files []netmodel.File
	for t := rng.ExpFloat64() / openRate; t < rc.seconds.Seconds(); t += rng.ExpFloat64() / openRate {
		arrivals = append(arrivals, time.Duration(t*float64(time.Second)))
		files = append(files, drawFile(rng, openDCs, openMaxT))
	}
	slots := int(rc.seconds / openSlot)
	readDue := make([]time.Duration, len(files))
	for i, a := range arrivals {
		closeDue := (a/openSlot + 1) * openSlot
		readDue[i] = closeDue + time.Duration(rng.Int63n(int64(openSlot)))
	}

	// Set-up: network, server, listener, first committed plan.
	setups, err := timeSetups(daemonSetupReps, func() (*daemon, error) {
		nw, err := newNetwork()
		if err != nil {
			return nil, err
		}
		return startDaemon(serverConfig(nw), openConns, nil)
	})
	if err != nil {
		return nil, err
	}
	nw, err := newNetwork()
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(serverConfig(nw), openConns, rc.tr)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			d.close()
		}
	}()

	answers := make([]*admitAnswer, len(files))
	for i := range answers {
		answers[i] = &admitAnswer{done: make(chan struct{})}
	}
	// closeAt and closeCPU record when each close was answered and the
	// process CPU time then.
	closeAt := make([]time.Time, slots)
	closeCPU := make([]time.Duration, slots)
	committed := make([]chan struct{}, slots)
	for i := range committed {
		committed[i] = make(chan struct{})
	}
	// admitsBefore[k] counts the admits due before close k.
	admitsBefore := make([]int, slots)
	for k := range admitsBefore {
		admitsBefore[k] = sort.Search(len(arrivals), func(i int) bool { return arrivals[i] >= time.Duration(k+1)*openSlot })
	}
	plans := newPlanSet()
	var reqSeq int64
	var seqMu sync.Mutex
	nextReq := func() int64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		reqSeq++
		return reqSeq
	}

	var start time.Time // set just before the run
	// traced wraps a request in a client span from its due time to its
	// answer, the parent of the handler span.
	traced := func(name string, due time.Duration, send func(parent, req int64)) {
		if rc.tr == nil {
			send(0, 0)
			return
		}
		id, req := rc.tr.reserve(), nextReq()
		send(id, req)
		rc.tr.addWithID(id, name, 0, req, start.Add(due), time.Now())
	}
	admitOps := make([]*op, len(files))
	for i := range files {
		i := i
		admitOps[i] = &op{due: arrivals[i], do: func() bool {
			a := answers[i]
			defer close(a.done)
			traced("loadgen.admit", arrivals[i], func(parent, req int64) {
				_, resp, err := d.admit(files[i], parent, req)
				if err != nil {
					out.fail("admit %d: %v", i, err)
					return
				}
				a.ok, a.admitted, a.id, a.slot = true, resp.Admitted, resp.ID, resp.Slot
			})
			return true
		}}
	}
	closeOps := make([]*op, slots)
	for k := range closeOps {
		k := k
		due := time.Duration(k+1) * openSlot
		closeOps[k] = &op{due: due,
			wait: func() {
				if k > 0 {
					<-committed[k-1]
				}
				for i := 0; i < admitsBefore[k]; i++ {
					<-answers[i].done
				}
			},
			do: func() bool {
				defer close(committed[k])
				traced("loadgen.advance", due, func(parent, req int64) {
					_, slot, err := d.advance(parent, req)
					closeAt[k], closeCPU[k] = time.Now(), cpuTime()
					if err != nil {
						out.fail("close %d: %v", k, err)
					} else if slot != k+1 {
						out.fail("close %d moved the daemon to slot %d", k, slot)
					}
				})
				return true
			}}
	}
	readOps := make([]*op, len(files))
	for i := range files {
		i := i
		readOps[i] = &op{due: readDue[i],
			wait: func() {
				a := answers[i]
				<-a.done
				if a.admitted && a.slot < slots {
					<-committed[a.slot]
				}
			},
			do: func() bool {
				a := answers[i]
				if !a.admitted {
					return false
				}
				traced("loadgen.read", readDue[i], func(parent, req int64) {
					var rec server.PlanRecord
					if _, err := d.getJSON("/v1/plans/"+strconv.Itoa(a.id), &rec, parent, req); err != nil {
						out.fail("read plan %d: %v", a.id, err)
						return
					}
					want := files[i]
					want.ID, want.Release = a.id, a.slot
					if err := checkPlan(&rec, want); err != nil {
						out.fail("%v", err)
						return
					}
					plans.add(&rec)
				})
				return true
			}}
	}
	var scrapeOps []*op
	for t := openScrape; t <= rc.seconds; t += openScrape {
		t := t
		scrapeOps = append(scrapeOps, &op{due: t, do: func() bool {
			traced("loadgen.read", t, func(parent, req int64) {
				code, _, err := d.call(http.MethodGet, "/metrics", nil, parent, req)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("status %d", code)
				}
				if err != nil {
					out.fail("GET /metrics: %v", err)
				}
			})
			return true
		}})
	}

	mem := startMem()
	start = time.Now().Add(5 * time.Millisecond)
	cpu0 := cpuTime()
	runOpenLoop(start, concat(admitOps, closeOps, readOps, scrapeOps))
	wall := time.Since(start)
	mem.record(out.layer)

	var final server.Status
	if _, err := d.getJSON("/v1/status", &final, 0, 0); err != nil {
		out.fail("final status: %v", err)
	}
	closed = true
	if err := d.close(); err != nil {
		out.fail("closing daemon: %v", err)
	}

	var admitMS, readMS, closeMS, lateMS []float64
	var under10, rejects, admitted int
	var admittedGB float64
	for i, o := range admitOps {
		lat := ms(o.timing.latency())
		admitMS = append(admitMS, lat)
		a := answers[i]
		if a.ok && lat <= 10 {
			under10++
		}
		if a.ok && !a.admitted {
			rejects++
		}
		if a.admitted {
			admitted++
			if a.slot < slots {
				admittedGB += files[i].Size
			}
		}
	}
	for _, o := range closeOps {
		closeMS = append(closeMS, ms(o.timing.latency()))
	}
	for _, o := range concat(readOps, scrapeOps) {
		if o.timing.attempted {
			readMS = append(readMS, ms(o.timing.latency()))
		}
	}
	attempted := len(admitMS) + len(closeMS) + len(readMS)
	for _, o := range concat(admitOps, closeOps, readOps, scrapeOps) {
		if o.timing.attempted {
			lateMS = append(lateMS, ms(o.timing.late()))
		}
	}

	costs, err := plans.verifyCommitted(nw, slots)
	switch {
	case err != nil:
		out.fail("read-back plans: %v", err)
	case len(costs) > 0 && !sameCost(costs[len(costs)-1], final.CostPerSlot):
		out.fail("read-back plans cost %.9g per slot, daemon reports %.9g", costs[len(costs)-1], final.CostPerSlot)
	}
	if final.SlotsAdvanced != slots || final.Admission.Admits != admitted {
		out.fail("daemon reports %d slots and %d admits, benchmark saw %d and %d",
			final.SlotsAdvanced, final.Admission.Admits, slots, admitted)
	}
	if late := lateness(lateMS); late > maxLateP99MS {
		out.fail("generator ran late: p99 %.3g ms > %g ms", late, maxLateP99MS)
	}

	e := out.e2e
	e.pct("admit_p50_ms", "ms", admitMS, 0.5)
	e.pct("admit_p99_ms", "ms", admitMS, 0.99)
	e.put("admit_under_10ms_frac", "fraction", ratio(float64(under10), float64(len(admitMS))), len(admitMS))
	e.pct("read_p99_ms", "ms", readMS, 0.99)
	e.pct("commit_p50_ms", "ms", closeMS, 0.5)
	e.pct("commit_p90_ms", "ms", closeMS, 0.9)
	recordRates(e, windows(answers, closeAt, closeCPU, start, cpu0))
	e.absent("figure_s", "s", "no figure in this workload")
	e.put("cost_per_slot", "cost", final.CostPerSlot, slots)
	e.put("cost_per_gb", "cost/GB", costPerGB(final.CostPerSlot, slots, admittedGB), admitted)
	e.put("reject_frac", "fraction", ratio(float64(rejects), float64(len(admitMS))), len(admitMS))
	out.attempt(attempted)

	l := out.layer
	l.pct("loadgen.late_p99_ms", "ms", lateMS, 0.99)
	if rc.tr != nil {
		spans := rc.tr.snapshot()
		recordHTTP(l, spans)
		recordServer(l, final)
		recordSolver(l, final.Solver)
		st := &replayStats{}
		if err := replay(nw, decidedBySlot(answers, files, slots), true, rc.tr, st); err != nil {
			out.fail("%v", err)
		}
		st.record(l, wall)
	}
	out.common(setups, attempted)
	return out, nil
}

// windows splits the run into units of openWindow slots, each from one
// close to a later one, with the files admitted into its slots. A run
// shorter than one window is one unit.
func windows(answers []*admitAnswer, closeAt []time.Time, closeCPU []time.Duration, start time.Time, cpu0 time.Duration) []unit {
	slots := len(closeAt)
	files := make([]int, slots)
	for _, a := range answers {
		if a.admitted && a.slot < slots {
			files[a.slot]++
		}
	}
	w := min(openWindow, slots)
	var units []unit
	at, cpu := start, cpu0
	for k := w - 1; k < slots; k += w {
		u := unit{wall: closeAt[k].Sub(at), cpu: closeCPU[k] - cpu}
		for s := k - w + 1; s <= k; s++ {
			u.files += files[s]
		}
		units = append(units, u)
		at, cpu = closeAt[k], closeCPU[k]
	}
	return units
}

// concat joins op lists into one, in order.
func concat(lists ...[]*op) []*op {
	var out []*op
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// decidedBySlot groups the answered admits by the slot the daemon put them
// in, in the daemon's decision order (its IDs are assigned in that order).
func decidedBySlot(answers []*admitAnswer, files []netmodel.File, slots int) [][]decided {
	out := make([][]decided, slots)
	for i, a := range answers {
		if !a.ok || a.slot >= slots {
			continue
		}
		f := files[i]
		f.ID, f.Release = a.id, a.slot
		out[a.slot] = append(out[a.slot], decided{file: f, admitted: a.admitted})
	}
	for _, batch := range out {
		sort.Slice(batch, func(i, j int) bool { return batch[i].file.ID < batch[j].file.ID })
	}
	return out
}
