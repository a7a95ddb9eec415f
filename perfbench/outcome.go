package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
	"github.com/interdc/postcard/internal/server"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in an untraced run
}

// Each workload sets up several times, so that set-up time is a median
// rather than one cold sample: a daemon's cold start takes a few
// milliseconds, a figure's first slot about 0.1 s. Set-up is measured in
// CPU time: on a shared VM its wall time is mostly waits for the host.
const (
	daemonSetupReps = 51
	figureSetupReps = 15
)

// outcome is what a workload run produced: its end-to-end and per-layer
// metrics, how many operations it attempted, and every failed operation or
// output check.
type outcome struct {
	e2e   *report
	layer *report

	mu        sync.Mutex
	attempted int
	failures  []string
}

func newOutcome() *outcome { return &outcome{e2e: newReport(), layer: newReport()} }

func (o *outcome) attempt(n int) {
	o.mu.Lock()
	o.attempted += n
	o.mu.Unlock()
}

func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
	o.mu.Unlock()
}

func (o *outcome) failed() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.failures)
}

// common records the metrics every workload reports the same way.
func (o *outcome) common(setups []float64, attempted int) {
	o.e2e.put("setup_s", "s", median(setups), len(setups))
	if rss, err := maxRSSMB(); err != nil {
		o.fail("%v", err)
	} else {
		o.e2e.put("max_rss_mb", "MB", rss, 0)
	}
	o.e2e.put("error_frac", "fraction", ratio(float64(o.failed()), float64(attempted)), attempted)
}

// planSet collects committed plans read back from the daemon, keyed by the
// slot that committed them, for an independent replay through the
// verifier.
type planSet struct {
	mu    sync.Mutex
	slots map[int][]*server.PlanRecord
}

func newPlanSet() *planSet { return &planSet{slots: make(map[int][]*server.PlanRecord)} }

func (p *planSet) add(rec *server.PlanRecord) {
	p.mu.Lock()
	p.slots[rec.Slot] = append(p.slots[rec.Slot], rec)
	p.mu.Unlock()
}

// checkPlan checks one plan read back over HTTP against the transfer the
// benchmark sent.
func checkPlan(rec *server.PlanRecord, want netmodel.File) error {
	if rec.Status != server.StatusCommitted {
		return fmt.Errorf("plan %d has status %q after its slot committed", rec.FileID, rec.Status)
	}
	got := rec.File
	if got.ID != want.ID || got.Src != want.Src || got.Dst != want.Dst || got.Size != want.Size ||
		got.Deadline != want.Deadline || got.Release != rec.Slot {
		return fmt.Errorf("plan %d describes file %+v, sent %+v in slot %d", rec.FileID, got, want, rec.Slot)
	}
	return nil
}

// verifyCommitted replays the read-back plans slot by slot through
// schedule.Verify against a ledger of its own, applying each verified slot
// before checking the next, and returns that ledger's cost per slot after
// each slot in order.
func (p *planSet) verifyCommitted(nw *netmodel.Network, slots int) ([]float64, error) {
	ledger, err := netmodel.NewLedger(nw, netmodel.Charging{Q: 100, PeriodSlots: 100})
	if err != nil {
		return nil, err
	}
	costs := make([]float64, 0, slots)
	for slot := 0; slot < slots; slot++ {
		var plan schedule.Schedule
		var files []netmodel.File
		for _, rec := range p.slots[slot] {
			files = append(files, rec.File)
			for _, a := range rec.Actions {
				if a.FileID != rec.FileID {
					return nil, fmt.Errorf("plan %d carries an action of file %d", rec.FileID, a.FileID)
				}
				plan.Add(a)
			}
		}
		if err := schedule.Verify(&plan, nw, files, schedule.VerifyConfig{Residual: ledger.Residual}); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
		if err := plan.Apply(ledger); err != nil {
			return nil, fmt.Errorf("slot %d: %w", slot, err)
		}
		costs = append(costs, ledger.CostPerSlot())
	}
	return costs, nil
}

// costPerGB is a ledger's cost over the slots it ran, per GB it committed.
// Unlike the cost per slot, it does not fall when fewer transfers are
// admitted.
func costPerGB(costPerSlot float64, slots int, gb float64) float64 {
	return ratio(costPerSlot*float64(slots), gb)
}

// sameCost compares two costs per slot computed by different summation
// orders of the same volumes.
func sameCost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-9*(1+scale)
}
