// Command perfbench is the repository's benchmark. It runs one workload
// against the program's public entry points, checks the program's outputs,
// and prints every metric by name with its unit; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics; with
// --trace 1 the run records spans around every call into a layer and
// reports the per-layer metrics instead, writing the spans under --out.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload admit-open-8dc --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	admit-open-8dc     the daemon with its default flags, open-loop Poisson
//	                   admits at 40/s on 2 connections, a slot closed every
//	                   0.5 s, every plan read back, /metrics scraped
//	commit-batch-16dc  the daemon with -republish-on-commit-only at 16 DCs,
//	                   closed-loop batches of Poisson(40) files per slot
//	fig7-ci            the CI-scale Fig 7 with the postcard scheduler
//
// A failed operation or output check makes the command exit 1 after
// printing the result line with "correct": false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]func(runConfig) (*outcome, error){
	"admit-open-8dc":    runAdmitOpen,
	"commit-batch-16dc": runCommitBatch,
	"fig7-ci":           runFig7,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	metrics, err := readSpec("BENCHMARK.json")
	if err != nil {
		return 2, err
	}

	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	o, err := fn(rc)
	if err != nil {
		return 1, err
	}

	if rc.tr != nil {
		spans := rc.tr.snapshot()
		o.layer.put("trace.spans", "count", float64(len(spans)), 0)
		for _, m := range []string{"files_per_s", "cpu_ms_per_file", "admit_p50_ms", "commit_p50_ms"} {
			if e, ok := o.e2e.get(m); ok && e.ok {
				o.layer.put("trace."+m, e.unit, e.value, e.n)
			}
		}
		path, err := writeSpans(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed), spans)
		if err != nil {
			o.fail("%v", err)
		} else {
			fmt.Printf("spans: %s\n", path)
		}
		printSelfTimes(spans)
	}

	o.e2e.print(os.Stdout, fmt.Sprintf("end-to-end, %s, seed %d:", *name, *seed))
	var out map[string]jsonMetric
	if rc.tr == nil {
		out, err = selectMetrics(o.e2e, metrics.EndToEnd, true)
	} else {
		o.layer.print(os.Stdout, "per-layer (traced run):")
		out, err = selectMetrics(o.layer, metrics.PerLayer, false)
	}
	if err != nil {
		o.fail("%v", err)
		out = map[string]jsonMetric{}
	}
	for _, f := range o.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	failed := o.failed()
	attempted := max(o.attempted, 1)
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return 1, fmt.Errorf("%d failed operations or checks", failed)
	}
	return 0, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSelfTimes prints each span name's total and self time.
func printSelfTimes(spans []span) {
	self := selfByName(spans)
	total := make(map[string]float64)
	count := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += float64(s.dur()) / 1e6
		count[s.Name]++
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("self time by layer (traced run):")
	for _, n := range names {
		fmt.Printf("  %-22s spans %7d  total %11.3f ms  self %11.3f ms\n", n, count[n], total[n], self[n])
	}
}
