// Package server implements the postcard-server daemon: an HTTP/JSON
// control plane over the two-tier admission pipeline. It decomposes into
// three pieces sharing one mutex-guarded state machine:
//
//   - the controller front end (POST /v1/transfers) answers admit/reject
//     synchronously from the fast tier, returning the provisional plan or
//     the reject certificate;
//   - the republisher re-solves the open batch through the warm
//     incremental LP in the background and atomically swaps the batch's
//     plan when the LP improves it;
//   - the telemetry/plan surface (GET /v1/plans/{id}, GET /v1/status,
//     GET /metrics) exposes per-file schedules and the full solver and
//     admission counter set.
//
// A slot clock (or explicit POST /v1/slots/advance) closes each slot's
// batch: the final plan is committed to the charging ledger and the per-file
// records flip from provisional to committed. Close drains the open batch
// and optionally snapshots the full state to disk; Restore resumes a
// snapshotted server (bit-identically under RepublishOnCommitOnly; see
// snapshot.go).
package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/interdc/postcard/internal/admission"
	"github.com/interdc/postcard/internal/core"
	"github.com/interdc/postcard/internal/netmodel"
	"github.com/interdc/postcard/internal/schedule"
)

// Config parameterizes a Server.
type Config struct {
	// Network is the topology and pricing the server schedules over.
	Network *netmodel.Network
	// Charging is the percentile charging scheme of the ledger.
	Charging netmodel.Charging
	// Admission tunes the admission controller; nil selects defaults.
	Admission *admission.Config
	// SlotEvery advances the slot clock automatically at this period; 0
	// leaves the clock manual (POST /v1/slots/advance only).
	SlotEvery time.Duration
	// SnapshotPath, when non-empty, is where Close writes the final state
	// snapshot (and where POST /v1/snapshot writes on demand).
	SnapshotPath string
	// DrainRollback makes Close discard the open batch via Rollback
	// instead of committing it through TakePlan.
	DrainRollback bool
	// NoRepublish disables the LP republisher entirely; batches commit
	// their provisional fast-tier plans unchanged.
	NoRepublish bool
	// RepublishOnCommitOnly restricts the republisher to the slot-commit
	// path: no eager background re-solves between admissions. The commit
	// pipeline then performs exactly one LP solve per non-empty slot —
	// the same sequence as the postcard-fast simulation scheduler — which
	// makes the counter set bit-comparable to a sequential run (the CI
	// smoke diff relies on this).
	RepublishOnCommitOnly bool
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

// PlanStatus is the lifecycle state of one admitted transfer.
type PlanStatus string

const (
	// StatusProvisional marks a transfer admitted into the still-open
	// batch; its plan may improve when the republisher runs.
	StatusProvisional PlanStatus = "provisional"
	// StatusCommitted marks a transfer whose slot has closed; its plan is
	// final and recorded in the charging ledger.
	StatusCommitted PlanStatus = "committed"
)

// PlanRecord is the queryable per-transfer state.
type PlanRecord struct {
	FileID      int               `json:"file_id"`
	File        netmodel.File     `json:"file"`
	Status      PlanStatus        `json:"status"`
	Slot        int               `json:"slot"` // admission slot
	ChargeDelta float64           `json:"charge_delta"`
	Path        []netmodel.DC     `json:"path,omitempty"`
	Actions     []schedule.Action `json:"actions,omitempty"`
}

// Server is the daemon state machine. All fields behind mu; safe for
// concurrent use by the HTTP handlers, the republisher, and the slot
// clock.
type Server struct {
	cfg Config

	mu     sync.Mutex
	nw     *netmodel.Network
	ledger *netmodel.Ledger
	ctrl   *admission.Controller
	slot   int
	nextID int
	plans  map[int]*PlanRecord
	closed bool

	slotsAdvanced int // lifetime slot commits (restarts included)
	reloads       int // pricing reloads applied

	republishPending bool

	clockStop chan struct{}
	clockDone chan struct{}
}

// New builds a server over a fresh ledger.
func New(cfg Config) (*Server, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("server: nil network")
	}
	ledger, err := netmodel.NewLedger(cfg.Network, cfg.Charging)
	if err != nil {
		return nil, err
	}
	ctrl, err := admission.NewController(ledger, cfg.Admission)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		nw:     cfg.Network,
		ledger: ledger,
		ctrl:   ctrl,
		nextID: 1,
		plans:  make(map[int]*PlanRecord),
	}
	s.startClock()
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) startClock() {
	if s.cfg.SlotEvery <= 0 {
		return
	}
	s.clockStop = make(chan struct{})
	s.clockDone = make(chan struct{})
	go func() {
		defer close(s.clockDone)
		t := time.NewTicker(s.cfg.SlotEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := s.AdvanceSlot(); err != nil {
					s.logf("slot clock: %v", err)
				}
			case <-s.clockStop:
				return
			}
		}
	}()
}

// TransferRequest is the body of POST /v1/transfers.
type TransferRequest struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	SizeGB   float64 `json:"size_gb"`
	Deadline int     `json:"deadline"`
	// Release is the slot the file becomes available; values below the
	// current slot (including the zero value) admit at the current slot.
	Release int `json:"release"`
}

// TransferResponse is the synchronous admission answer.
type TransferResponse struct {
	ID       int  `json:"id"`
	Admitted bool `json:"admitted"`
	Slot     int  `json:"slot"`
	// Plan is the provisional fast-tier plan; nil when rejected. The
	// background republisher may improve it before the slot commits —
	// GET /v1/plans/{id} always shows the current plan.
	Plan *PlanRecord `json:"plan,omitempty"`
	// Expansions and Exhaustive form the reject certificate: a rejection
	// with Exhaustive true proved no feasible single path exists under the
	// current reservations; false means the search hit its expansion
	// budget first.
	Expansions int  `json:"expansions"`
	Exhaustive bool `json:"exhaustive"`
}

// Admit runs the fast-path admission decision for one transfer request at
// the current slot and, on admission, schedules a background republish of
// the open batch.
func (s *Server) Admit(req TransferRequest) (*TransferResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	release := req.Release
	if release < s.slot {
		release = s.slot
	}
	f := netmodel.File{
		ID:       s.nextID,
		Src:      netmodel.DC(req.Src),
		Dst:      netmodel.DC(req.Dst),
		Size:     req.SizeGB,
		Deadline: req.Deadline,
		Release:  release,
	}
	if err := f.Validate(s.nw); err != nil {
		return nil, err
	}
	dec, err := s.ctrl.Admit(f, s.slot)
	if err != nil {
		return nil, err
	}
	s.nextID++
	resp := &TransferResponse{
		ID:         f.ID,
		Admitted:   dec.Admitted,
		Slot:       s.slot,
		Expansions: dec.Expansions,
		Exhaustive: dec.Exhaustive,
	}
	if !dec.Admitted {
		return resp, nil
	}
	rec := &PlanRecord{
		FileID:      f.ID,
		File:        f,
		Status:      StatusProvisional,
		Slot:        s.slot,
		ChargeDelta: dec.Plan.ChargeDelta,
		Path:        dec.Plan.Path,
		Actions:     dec.Plan.Schedule.Actions(),
	}
	s.plans[f.ID] = rec
	// The response carries a copy: the live record is mutated under the
	// lock by the republisher, while the handler marshals the response
	// after the lock is released.
	resp.Plan = copyRecord(rec)
	s.scheduleRepublishLocked()
	return resp, nil
}

func copyRecord(rec *PlanRecord) *PlanRecord {
	cp := *rec
	cp.Actions = append([]schedule.Action(nil), rec.Actions...)
	cp.Path = append([]netmodel.DC(nil), rec.Path...)
	return &cp
}

// scheduleRepublishLocked queues one background republish of the open
// batch. Admissions arriving while a republish is pending coalesce into
// it; the republish grabs the state lock, so it serializes with admits and
// slot advances.
func (s *Server) scheduleRepublishLocked() {
	if s.cfg.NoRepublish || s.cfg.RepublishOnCommitOnly || s.republishPending {
		return
	}
	s.republishPending = true
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.republishPending = false
		if s.closed {
			return
		}
		if err := s.republishLocked(); err != nil {
			s.logf("republish: %v", err)
		}
	}()
}

// republishLocked re-solves the open batch through the LP and refreshes
// the provisional plan records from the (possibly swapped) batch plan.
func (s *Server) republishLocked() error {
	if len(s.ctrl.Pending()) == 0 {
		return nil
	}
	if err := s.ctrl.Republish(s.slot); err != nil {
		return err
	}
	s.refreshProvisionalLocked()
	return nil
}

// refreshProvisionalLocked re-splits the batch's current merged plan into
// the per-file provisional records. After an LP swap a file's plan may use
// multiple paths, so Path no longer applies.
func (s *Server) refreshProvisionalLocked() {
	perFile := splitByFile(s.ctrl.BatchPlan())
	for _, f := range s.ctrl.Pending() {
		rec := s.plans[f.ID]
		if rec == nil || rec.Status != StatusProvisional {
			continue
		}
		if actions, ok := perFile[f.ID]; ok {
			rec.Actions = actions
			rec.Path = nil
		}
	}
}

// AdvanceSlot closes the current slot: the open batch is republished one
// final time (unless disabled), committed to the ledger, its records
// flipped to committed, and the clock moves to the next slot.
func (s *Server) AdvanceSlot() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if err := s.advanceLocked(); err != nil {
		return 0, err
	}
	return s.slot, nil
}

func (s *Server) advanceLocked() error {
	if err := s.commitBatchLocked(); err != nil {
		return err
	}
	s.slot++
	return nil
}

// commitBatchLocked finalizes the open batch (republish + TakePlan +
// ledger apply + record flip) without advancing the clock.
func (s *Server) commitBatchLocked() error {
	if len(s.ctrl.Pending()) > 0 && !s.cfg.NoRepublish {
		if err := s.republishLocked(); err != nil {
			return err
		}
	}
	plan, files, err := s.ctrl.TakePlan()
	if err != nil {
		return err
	}
	if err := plan.Apply(s.ledger); err != nil {
		return fmt.Errorf("server: committing slot %d plan: %w", s.slot, err)
	}
	perFile := splitByFile(plan.Actions())
	for _, f := range files {
		rec := s.plans[f.ID]
		if rec == nil {
			continue
		}
		rec.Status = StatusCommitted
		rec.Actions = perFile[f.ID]
	}
	if len(files) > 0 {
		s.logf("slot %d: committed %d files, cost/slot %.4f", s.slot, len(files), s.ledger.CostPerSlot())
	}
	s.slotsAdvanced++
	return nil
}

// PlanByID returns the current record for one transfer.
func (s *Server) PlanByID(id int) (*PlanRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.plans[id]
	if !ok {
		return nil, false
	}
	return copyRecord(rec), true
}

// Status is the GET /v1/status body.
type Status struct {
	Slot          int             `json:"slot"`
	CostPerSlot   float64         `json:"cost_per_slot"`
	TotalCost     float64         `json:"total_cost"`
	PendingFiles  int             `json:"pending_files"`
	Plans         int             `json:"plans"`
	SlotsAdvanced int             `json:"slots_advanced"`
	Reloads       int             `json:"pricing_reloads"`
	Admission     admission.Stats `json:"admission"`
	Solver        core.SolveStats `json:"solver"`
}

// Status reports the server's aggregate state.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

func (s *Server) statusLocked() Status {
	return Status{
		Slot:          s.slot,
		CostPerSlot:   s.ledger.CostPerSlot(),
		TotalCost:     s.ledger.TotalCost(),
		PendingFiles:  len(s.ctrl.Pending()),
		Plans:         len(s.plans),
		SlotsAdvanced: s.slotsAdvanced,
		Reloads:       s.reloads,
		Admission:     s.ctrl.Stats(),
		Solver:        s.ctrl.SolverStats(),
	}
}

// ReloadPricing swaps the link prices to the instance's, keeping topology
// and capacities fixed (changing either would invalidate in-flight
// reservations and recorded volumes). Prices are read per solve, so the
// next republish and all later slots price against the new tariff; the
// ledger's recorded volumes are unaffected. This is the SIGHUP handler's
// backend.
func (s *Server) ReloadPricing(inst *netmodel.Instance) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if inst.Datacenters != s.nw.NumDCs() {
		return fmt.Errorf("server: pricing reload changes datacenter count %d -> %d", s.nw.NumDCs(), inst.Datacenters)
	}
	seen := make(map[netmodel.Link]bool, len(inst.Links))
	for _, l := range inst.Links {
		from, to := netmodel.DC(l.From), netmodel.DC(l.To)
		if !s.nw.HasLink(from, to) {
			return fmt.Errorf("server: pricing reload adds link %d->%d", l.From, l.To)
		}
		if cap := s.nw.Capacity(from, to); l.Capacity != cap {
			return fmt.Errorf("server: pricing reload changes capacity of %d->%d from %g to %g", l.From, l.To, cap, l.Capacity)
		}
		if l.Price < 0 {
			return fmt.Errorf("server: negative price %g on %d->%d", l.Price, l.From, l.To)
		}
		seen[netmodel.Link{From: from, To: to}] = true
	}
	missing := ""
	s.nw.Links(func(l netmodel.Link, _, _ float64) {
		if !seen[l] && missing == "" {
			missing = l.String()
		}
	})
	if missing != "" {
		return fmt.Errorf("server: pricing reload drops link %s", missing)
	}
	for _, l := range inst.Links {
		if err := s.nw.SetLink(netmodel.DC(l.From), netmodel.DC(l.To), l.Price, l.Capacity); err != nil {
			return err
		}
	}
	s.reloads++
	s.logf("pricing reloaded (%d links)", len(inst.Links))
	return nil
}

// Close shuts the server down: the slot clock stops, the open batch is
// drained — committed through the normal slot pipeline, or discarded via
// Rollback under Config.DrainRollback — and, when SnapshotPath is set, the
// full state is snapshotted to disk for a later Restore.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop, done := s.clockStop, s.clockDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	var drainErr error
	if len(s.ctrl.Pending()) > 0 {
		if s.cfg.DrainRollback {
			s.logf("drain: rolling back %d pending files", len(s.ctrl.Pending()))
			drainErr = s.ctrl.Rollback()
		} else {
			s.logf("drain: committing %d pending files", len(s.ctrl.Pending()))
			drainErr = s.commitBatchLocked()
		}
	}
	if s.cfg.SnapshotPath != "" {
		if err := s.writeSnapshotLocked(s.cfg.SnapshotPath); err != nil {
			if drainErr == nil {
				drainErr = err
			}
			s.logf("snapshot: %v", err)
		} else {
			s.logf("snapshot written to %s", s.cfg.SnapshotPath)
		}
	}
	return drainErr
}

var errClosed = fmt.Errorf("server: closed")

// splitByFile groups a sorted action list per file ID.
func splitByFile(actions []schedule.Action) map[int][]schedule.Action {
	out := make(map[int][]schedule.Action)
	for _, a := range actions {
		out[a.FileID] = append(out[a.FileID], a)
	}
	return out
}

// sortedPlanIDs returns the record keys ascending (stable /metrics and
// snapshot output).
func (s *Server) sortedPlanIDsLocked() []int {
	ids := make([]int, 0, len(s.plans))
	for id := range s.plans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
