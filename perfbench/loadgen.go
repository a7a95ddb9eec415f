package main

import (
	"sort"
	"sync"
	"time"
)

// op is one request of an open-loop run, sent at its due time whatever
// happened to the requests before it.
type op struct {
	due time.Duration // offset from the run's start
	// wait, when set, blocks until the requests this one depends on have
	// been answered (a slot close waits for the admits due before it). The
	// time spent waiting counts in the op's latency.
	wait func()
	// do sends the request and handles its answer. It returns false when
	// there was nothing to send (a read of a rejected transfer).
	do func() bool

	timing opTiming // set by runOpenLoop
}

// opTiming records when an op was due, when the generator dispatched it,
// and when its answer was in. Latency is done-due, never done-sent, so a
// stall that delays later requests is charged to them too (no coordinated
// omission); sent-due is how late the generator itself ran.
type opTiming struct {
	due, sent, done time.Time
	attempted       bool // do sent a request
}

func (t opTiming) latency() time.Duration { return t.done.Sub(t.due) }
func (t opTiming) late() time.Duration    { return t.sent.Sub(t.due) }

// runOpenLoop dispatches the ops in order of due time (ops due together in
// the order given), each on its own goroutine, records each op's timing,
// and returns once every op has been answered. The dispatcher never waits
// for an answer, so a slow server cannot slow the schedule; only the host
// can, and that shows as lateness.
func runOpenLoop(start time.Time, ops []*op) {
	order := append([]*op(nil), ops...)
	sort.SliceStable(order, func(a, b int) bool { return order[a].due < order[b].due })
	var wg sync.WaitGroup
	for _, o := range order {
		due := start.Add(o.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o.timing.due = due
		o.timing.sent = time.Now()
		wg.Add(1)
		go func(o *op) {
			defer wg.Done()
			if o.wait != nil {
				o.wait()
			}
			o.timing.attempted = o.do()
			o.timing.done = time.Now()
		}(o)
	}
	wg.Wait()
}
