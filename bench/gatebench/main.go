// Command gatebench is the gateway's end-to-end and per-layer benchmark:
// it hosts the gateway, the origin and the client in one process, drives
// real loopback TCP (socket in → socket out) and verifies every delivery.
// See ../README.md for the metrics, the workloads and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric. The same tables are in
// BENCHMARK.json; a test keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_msgs_per_s", "msg/s"},
	{"goodput_mb_per_s", "MB/s"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
	{"alloc_bytes_per_msg", "B"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"peak_rss_mb", "MB"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// report prints the human-readable table and, last, the one-line JSON
// object the driver parses.
func report(o options, defs []metricDef, r *result) error {
	fmt.Printf("gatebench %s seed=%d seconds=%g trace=%v\n", o.sp.name, o.seed, o.seconds, o.trace)
	fmt.Printf("host: GOMAXPROCS=%d cpu=%q %s %s/%s, loopback TCP (no real link)\n",
		runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	out := resultJSON{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("  %-36s %16.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 30, "measured time of the run")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		smoke     = flag.Bool("smoke", false, "shrink the fixed work (5 cold cycles, short warm-up and ladder): a quick pass to see that everything runs, not a measurement")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare their medians against the bounds")
	)
	flag.Parse()
	if *selfcheck > 0 {
		os.Exit(selfCheck(*selfcheck, *workload, *seed, *seconds))
	}
	sp := findSpec(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "gatebench: unknown workload %q (have: %s)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "gatebench: -seconds must be at least 1")
		os.Exit(2)
	}
	o := options{sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	if o.smoke {
		ticksPerSlice, pacedSettle = 2, 50*time.Millisecond
	}
	run, defs := runEndToEnd, endToEnd
	if o.trace {
		run, defs = runTraced, perLayer
	}
	r, err := run(o)
	if err == nil {
		err = report(o, defs, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatebench:", err)
		os.Exit(1)
	}
}
