package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json, the contract this program is run under.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	p, err := findUp("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return &bf, nil
}

// runChild runs one benchmark run in a fresh process (peak RSS, the metrics
// registry and the heap all start clean) and parses its last line.
func runChild(workload string, seed int64, seconds float64) (*resultJSON, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run %s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("run %s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}

// worse is how much b is worse than a, as a share of a, given which
// direction is better; negative when b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// selfCheck applies the benchmark's own acceptance rule to the benchmark:
// two interleaved sets of n runs per workload, every run with another seed;
// each metric's spread (inter-quartile distance over the median) must stay
// within its bound in both sets, setup_s excepted, and the second set's
// median must not be worse than the first's by more than the bound.
func selfCheck(n int, only string, seed int64, seconds float64) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatebench:", err)
		return 1
	}
	breaches := 0
	for _, wl := range bf.Workloads {
		if only != "" && only != wl.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				s := seed + int64(2*i+k)
				res, err := runChild(wl.Name, s, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "gatebench:", err)
					return 1
				}
				if !res.Correct || res.Failed != 0 {
					fmt.Printf("%s seed %d: %d of %d operations FAILED\n", wl.Name, s, res.Failed, res.Attempted)
					breaches++
				}
				for name, m := range res.Metrics {
					sets[k][name] = append(sets[k][name], m.Value)
				}
				fmt.Printf("%s set %c run %d/%d seed %d done\n", wl.Name, 'A'+k, i+1, n, s)
			}
		}
		fmt.Printf("\n%s: two interleaved sets of %d runs, %g s each\n", wl.Name, n, seconds)
		fmt.Printf("  %-24s %12s %12s %8s %8s %8s %8s %7s  %s\n", "metric", "median A", "median B", "iqr A", "iqr B", "iqr A+B", "B worse", "bound", "verdict")
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			sa, sb, w := spread(a), spread(b), worse(ma, mb, m.Better)
			sab := spread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			if w > m.Bound {
				verdict = "BREACH (medians)"
			} else if m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound) {
				verdict = "BREACH (spread)"
			} else if math.Max(sa, sb) > m.Bound/3 && m.Name != "setup_s" {
				verdict = "ok (spread above a third of the bound)"
			}
			if strings.HasPrefix(verdict, "BREACH") {
				breaches++
			}
			fmt.Printf("  %-24s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				m.Name, ma, mb, 100*sa, 100*sb, 100*sab, 100*w, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	if breaches > 0 {
		fmt.Printf("selfcheck: %d breach(es)\n", breaches)
		return 1
	}
	fmt.Println("selfcheck: every metric within its bound")
	return 0
}
