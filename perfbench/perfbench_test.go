package main

import (
	"math"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// minSamples is the smallest sample count percentile accepts for q.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n)-1e-9)) >= minBeyond {
			return n
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(tc.q); got != tc.need {
			t.Errorf("minSamples(%g) = %d, want %d", tc.q, got, tc.need)
		}
		if _, err := percentile(seq(tc.need-1), tc.q); err == nil {
			t.Errorf("p%g of %d samples accepted", tc.q*100, tc.need-1)
		}
		v, err := percentile(seq(tc.need), tc.q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", tc.q*100, tc.need, err)
		}
		// Nearest rank over 1..n: exactly ten samples lie above the value.
		if want := float64(tc.need - minBeyond); v != want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.q*100, tc.need, v, want)
		}
	}
	if _, err := percentile(seq(50), 1); err == nil {
		t.Error("q = 1 accepted")
	}
}

func TestReportMarksShortSamplesAbsent(t *testing.T) {
	r := newReport()
	r.pct("x_p99_ms", "ms", seq(500), 0.99)
	r.pct("x_p50_ms", "ms", seq(500), 0.5)
	if e, _ := r.get("x_p99_ms"); e.ok {
		t.Errorf("p99 of 500 samples reported as %g", e.value)
	}
	if e, _ := r.get("x_p50_ms"); !e.ok || e.n != 500 {
		t.Errorf("p50 of 500 samples: %+v", e)
	}
	specs := []metricSpec{{"x_p99_ms", "ms"}, {"x_p50_ms", "ms"}}
	if _, err := selectMetrics(r, specs, true); err == nil {
		t.Error("an end-to-end metric without a value was accepted")
	}
	// A per-layer tail the workload exercised with too few samples must not
	// read as 0, which means the layer was not exercised.
	if got, err := selectMetrics(r, specs, false); err == nil {
		t.Errorf("per-layer p99 of 500 samples selected as %v", got)
	}
	r.absent("y_p99_ms", "ms", "not exercised")
	layer := []metricSpec{{"x_p50_ms", "ms"}, {"y_p99_ms", "ms"}, {"z_ms", "ms"}}
	got, err := selectMetrics(r, layer, false)
	if err != nil || got["x_p50_ms"].Value != 250 || got["y_p99_ms"].Value != 0 || got["z_ms"].Value != 0 {
		t.Errorf("per-layer selection = %v, %v", got, err)
	}
	r.put("zero", "ms", 0, 1)
	if _, err := selectMetrics(r, []metricSpec{{"zero", "ms"}}, true); err == nil {
		t.Error("an end-to-end metric reading 0 was accepted")
	}
	if _, err := selectMetrics(r, []metricSpec{{"x_p50_ms", "s"}}, false); err == nil {
		t.Error("a unit mismatch was accepted")
	}
}

// TestOpenLoopChargesStallToLaterRequests stalls a simulated server for
// 150 ms on the first request. Requests due during the stall must still be
// sent on time (the generator is not late) and their latency, timed from
// the due time, must include the wait for the stall to end.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n     = 20
		every = 10 * time.Millisecond
		stall = 150 * time.Millisecond
	)
	var server sync.Mutex // one request at a time, like the daemon's lock
	ops := make([]*op, n)
	for i := range ops {
		i := i
		ops[i] = &op{due: time.Duration(i) * every, do: func() bool {
			server.Lock()
			defer server.Unlock()
			if i == 0 {
				time.Sleep(stall)
			}
			return true
		}}
	}
	start := time.Now().Add(5 * time.Millisecond)
	runOpenLoop(start, ops)
	stallEnd := start.Add(stall)
	for i, o := range ops {
		tm := o.timing
		if !tm.attempted {
			t.Errorf("op %d not marked attempted", i)
		}
		if late := tm.late(); late > 40*time.Millisecond {
			t.Errorf("op %d sent %v late; the stall must not hold the generator back", i, late)
		}
		if !tm.due.Equal(start.Add(time.Duration(i) * every)) {
			t.Errorf("op %d due %v, want %v", i, tm.due.Sub(start), time.Duration(i)*every)
		}
		if tm.due.Before(stallEnd) && tm.done.Before(stallEnd) {
			t.Errorf("op %d due during the stall finished before it ended", i)
		}
		if tm.due.Before(stallEnd) {
			if want := stallEnd.Sub(tm.due); tm.latency() < want {
				t.Errorf("op %d latency %v, want at least %v (time from due to stall end)", i, tm.latency(), want)
			}
		}
	}
	lat := make([]float64, n)
	for i, o := range ops {
		lat[i] = ms(o.timing.late())
	}
	if worst := lateness(lat); worst > 40 {
		t.Errorf("lateness %g ms", worst)
	}
}

// TestOpenLoopDependencyWaitCounts checks that time an op spends waiting
// for its dependencies (a slot close waiting for the admits before it)
// counts in its latency, and that ops given out of due order are sent in
// due order with their timings left on them.
func TestOpenLoopDependencyWaitCounts(t *testing.T) {
	answered := make(chan struct{})
	first := &op{due: 0, do: func() bool { time.Sleep(60 * time.Millisecond); close(answered); return true }}
	dependent := &op{due: 10 * time.Millisecond, wait: func() { <-answered }, do: func() bool { return false }}
	start := time.Now()
	runOpenLoop(start, []*op{dependent, first})
	if !first.timing.due.Equal(start) || !dependent.timing.due.Equal(start.Add(10*time.Millisecond)) {
		t.Errorf("due times %v and %v", first.timing.due.Sub(start), dependent.timing.due.Sub(start))
	}
	if got := dependent.timing.latency(); got < 45*time.Millisecond {
		t.Errorf("dependent op latency %v, want at least 45ms", got)
	}
	if got := dependent.timing.late(); got > 30*time.Millisecond {
		t.Errorf("dependent op sent %v late", got)
	}
	if !first.timing.attempted || dependent.timing.attempted {
		t.Errorf("attempted flags %v, %v; want true, false", first.timing.attempted, dependent.timing.attempted)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},  // grandchild
		{ID: 6, Name: "lone", Start: 5, End: 7},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (40 + 10), // [10,50] and [90,100] covered
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 10,
		6: 2,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got, want := byName["a"], float64(20+20)/1e6; got != want {
		t.Errorf("self time of a = %g ms, want %g", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	now := time.Now()
	if id := tr.add("x", 0, 0, now, now); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	if tr.reserve() != 0 || tr.snapshot() != nil {
		t.Error("nil tracer kept state")
	}
	tr = newTracer()
	parent := tr.reserve()
	tr.add("child", parent, 7, now, now.Add(time.Millisecond))
	tr.addWithID(parent, "parent", 0, 7, now, now.Add(2*time.Millisecond))
	got := tr.snapshot()
	if len(got) != 2 || got[0].ID != parent || got[1].Parent != parent || got[1].Req != 7 {
		t.Errorf("spans %+v", got)
	}
}

func TestWindowsSplitRunIntoSlotWindows(t *testing.T) {
	start := time.Unix(0, 0)
	run := func(slots int) []unit {
		closeAt := make([]time.Time, slots)
		closeCPU := make([]time.Duration, slots)
		for k := range closeAt {
			closeAt[k] = start.Add(time.Duration(k+1) * time.Second)
			closeCPU[k] = time.Duration(k+1) * time.Millisecond
		}
		answers := []*admitAnswer{
			{admitted: true, slot: 0}, {admitted: true, slot: 9}, {admitted: false, slot: 9},
			{admitted: true, slot: 10}, {admitted: true, slot: 24},
		}
		return windows(answers, closeAt, closeCPU, start, 0)
	}
	got := run(25) // two whole windows; the last five slots are left out
	want := []unit{
		{files: 2, wall: 10 * time.Second, cpu: 10 * time.Millisecond},
		{files: 1, wall: 10 * time.Second, cpu: 10 * time.Millisecond},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("windows over 25 slots = %+v, want %+v", got, want)
	}
	if got := run(3); len(got) != 1 || got[0] != (unit{files: 1, wall: 3 * time.Second, cpu: 3 * time.Millisecond}) {
		t.Errorf("windows over 3 slots = %+v, want one unit of all three", got)
	}
}
