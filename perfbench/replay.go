package main

import (
	"fmt"
	"time"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// decided is one admit as the daemon decided it: the file with the ID and
// release slot the daemon assigned, and whether it was admitted.
type decided struct {
	file     netmodel.File
	admitted bool
}

// replayStats are the library-layer timings of one replay, in the units
// their metrics use.
type replayStats struct {
	admitUS     []float64 // admission.Controller.Admit
	expansions  int
	republishMS []float64 // every Republish call
	solveMS     []float64 // Republish calls that ran an LP solve
	swaps       int       // Republish calls that swapped the batch plan
	takeMS      []float64
	verifyMS    []float64
	applyMS     []float64
	busy        time.Duration // total time inside Republish
	costs       []float64     // ledger cost per slot after each slot
	mismatches  int           // decisions that differ from the daemon's
}

// replay runs the daemon's decided admits, slot by slot in decision order,
// through a benchmark-owned admission.Controller over a fresh ledger:
// Admit per file, Republish after every admit when eager (the daemon's
// background republisher) and once more at the close, then TakePlan,
// schedule.Verify and Schedule.Apply. Each call is one span under its
// slot's span.
func replay(nw *netmodel.Network, slots [][]decided, eager bool, tr *tracer, st *replayStats) error {
	ledger, err := netmodel.NewLedger(nw, netmodel.Charging{Q: 100, PeriodSlots: 100})
	if err != nil {
		return err
	}
	ctrl, err := admission.NewController(ledger, nil)
	if err != nil {
		return err
	}
	republish := func(slot int, parent int64) error {
		before, solves := ctrl.Stats().Republishes, ctrl.SolverStats().Solves
		start := time.Now()
		err := ctrl.Republish(slot)
		end := time.Now()
		tr.add("admission.republish", parent, 0, start, end)
		if err != nil {
			return fmt.Errorf("replay slot %d: %w", slot, err)
		}
		d := end.Sub(start)
		st.busy += d
		st.republishMS = append(st.republishMS, ms(d))
		if ctrl.SolverStats().Solves > solves {
			st.solveMS = append(st.solveMS, ms(d))
		}
		if ctrl.Stats().Republishes > before {
			st.swaps++
		}
		return nil
	}
	for slot, batch := range slots {
		id := tr.reserve()
		slotStart := time.Now()
		for _, dc := range batch {
			start := time.Now()
			dec, err := ctrl.Admit(dc.file, slot)
			end := time.Now()
			tr.add("admission.admit", id, 0, start, end)
			if err != nil {
				return fmt.Errorf("replay slot %d: %w", slot, err)
			}
			st.admitUS = append(st.admitUS, float64(end.Sub(start))/float64(time.Microsecond))
			st.expansions += dec.Expansions
			if dec.Admitted != dc.admitted {
				st.mismatches++
			}
			if eager && dec.Admitted {
				if err := republish(slot, id); err != nil {
					return err
				}
			}
		}
		if len(ctrl.Pending()) > 0 {
			if err := republish(slot, id); err != nil {
				return err
			}
		}
		start := time.Now()
		plan, files, err := ctrl.TakePlan()
		end := time.Now()
		tr.add("admission.take_plan", id, 0, start, end)
		if err != nil {
			return fmt.Errorf("replay slot %d: %w", slot, err)
		}
		st.takeMS = append(st.takeMS, ms(end.Sub(start)))

		start = time.Now()
		err = schedule.Verify(plan, nw, files, schedule.VerifyConfig{Residual: ledger.Residual})
		end = time.Now()
		tr.add("schedule.verify", id, 0, start, end)
		if err != nil {
			return fmt.Errorf("replay slot %d plan fails verification: %w", slot, err)
		}
		st.verifyMS = append(st.verifyMS, ms(end.Sub(start)))

		start = time.Now()
		err = plan.Apply(ledger)
		end = time.Now()
		tr.add("netmodel.apply", id, 0, start, end)
		if err != nil {
			return fmt.Errorf("replay slot %d: %w", slot, err)
		}
		st.applyMS = append(st.applyMS, ms(end.Sub(start)))
		st.costs = append(st.costs, ledger.CostPerSlot())
		tr.addWithID(id, "replay.slot", 0, 0, slotStart, time.Now())
	}
	return nil
}

// record writes the admission, netmodel and schedule layer metrics of the
// replay, plus the lock share its republishes would hold over a run of the
// given wall time.
func (st *replayStats) record(r *report, wall time.Duration) {
	r.pct("admission.admit_p50_us", "us", st.admitUS, 0.5)
	r.pct("admission.admit_p99_us", "us", st.admitUS, 0.99)
	r.put("admission.expansions_per_admit", "count", ratio(float64(st.expansions), float64(len(st.admitUS))), len(st.admitUS))
	r.pct("admission.republish_p50_ms", "ms", st.republishMS, 0.5)
	r.pct("admission.republish_p90_ms", "ms", st.republishMS, 0.9)
	r.put("admission.swap_frac", "fraction", ratio(float64(st.swaps), float64(len(st.republishMS))), len(st.republishMS))
	r.put("admission.take_plan_ms", "ms", mean(st.takeMS), len(st.takeMS))
	r.pct("core.solve_p50_ms", "ms", st.solveMS, 0.5)
	r.pct("core.solve_p90_ms", "ms", st.solveMS, 0.9)
	r.put("netmodel.apply_ms", "ms", mean(st.applyMS), len(st.applyMS))
	r.put("schedule.verify_ms", "ms", mean(st.verifyMS), len(st.verifyMS))
	r.put("server.lp_busy_frac", "fraction", ratio(float64(st.busy), float64(wall)), 0)
}
