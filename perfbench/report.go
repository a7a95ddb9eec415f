package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// entry is one named metric of a run. A metric that the workload cannot
// supply has ok false and a note saying why: either it does not apply, or
// (thin) the workload exercised it with too few samples for its percentile.
type entry struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 when it is not a sample statistic
	ok    bool
	thin  bool
	note  string
}

// report is an ordered set of metrics.
type report struct {
	list []entry
	idx  map[string]int
}

func newReport() *report { return &report{idx: make(map[string]int)} }

func (r *report) set(e entry) {
	if i, ok := r.idx[e.name]; ok {
		r.list[i] = e
		return
	}
	r.idx[e.name] = len(r.list)
	r.list = append(r.list, e)
}

// put records a measured value backed by n samples.
func (r *report) put(name, unit string, v float64, n int) {
	r.set(entry{name: name, unit: unit, value: v, n: n, ok: true})
}

// absent records that the metric has no value on this workload.
func (r *report) absent(name, unit, why string) {
	r.set(entry{name: name, unit: unit, note: why})
}

// pct records the q-quantile of xs, or its absence when xs is too small
// for the percentile rule.
func (r *report) pct(name, unit string, xs []float64, q float64) {
	v, err := percentile(xs, q)
	if err != nil {
		r.set(entry{name: name, unit: unit, thin: true, note: err.Error()})
		return
	}
	r.put(name, unit, v, len(xs))
}

func (r *report) get(name string) (entry, bool) {
	i, ok := r.idx[name]
	if !ok {
		return entry{}, false
	}
	return r.list[i], true
}

// print writes the report as an aligned table.
func (r *report) print(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n", title)
	for _, e := range r.list {
		if !e.ok {
			fmt.Fprintf(w, "  %-34s %14s %-8s (%s)\n", e.name, "-", e.unit, e.note)
			continue
		}
		samples := ""
		if e.n > 0 {
			samples = fmt.Sprintf("(n=%d)", e.n)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-8s %s\n", e.name, e.value, e.unit, samples)
	}
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the command reads: the metric
// names and units it must emit.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading metric spec: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &spec, nil
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the declared metrics out of the report. An end-to-end
// metric must be present with a finite, nonzero value. A per-layer metric
// the workload does not exercise reads 0; one it exercises with too few
// samples for its percentile is an error, so that 0 never stands for a
// tail that was not measured.
func selectMetrics(r *report, specs []metricSpec, required bool) (map[string]jsonMetric, error) {
	out := make(map[string]jsonMetric, len(specs))
	for _, s := range specs {
		e, ok := r.get(s.Name)
		if ok && e.unit != s.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.Name, e.unit, s.Unit)
		}
		switch {
		case ok && e.ok && !math.IsNaN(e.value) && !math.IsInf(e.value, 0):
			if required && e.value == 0 {
				return nil, fmt.Errorf("metric %s is 0", s.Name)
			}
			out[s.Name] = jsonMetric{Value: e.value, Unit: s.Unit}
		case required || e.thin:
			why := "not measured"
			if ok {
				why = e.note
			}
			return nil, fmt.Errorf("metric %s has no value: %s", s.Name, why)
		default:
			out[s.Name] = jsonMetric{Value: 0, Unit: s.Unit}
		}
	}
	return out, nil
}

// maxRSSMB reads the process's peak resident set size.
func maxRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// memDelta captures allocation and GC work over the measured window.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) record(r *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.put("runtime.alloc_mb", "MB", float64(after.TotalAlloc-m.before.TotalAlloc)/(1<<20), 0)
	r.put("runtime.gc_cycles", "count", float64(after.NumGC-m.before.NumGC), 0)
}

// cpuTime is the process's user plus system CPU time. A virtual machine's
// stolen time is not in it, which makes it steadier than wall time on a
// shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
