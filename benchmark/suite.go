package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild measures one workload in a child process of its own, so set-up
// time and peak memory are per workload and no workload warms another. The
// child's output is passed through; its last line is the result.
func runChild(workload string, seed int64, seconds float64, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s: %w", workload, runErr)
	}
	return &res, nil
}

// runSuite runs every workload untraced and then traced, printing every
// metric by name, and fails if any output check did.
func runSuite(seed int64, seconds float64) error {
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := runChild(w.name, seed, seconds, trace); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				failed++
			}
			fmt.Println()
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// aaPairs is how many runs each A/A set has per workload.
const aaPairs = 3

// runAA measures the same code as two sets of runs and holds the sets to
// the benchmark's own bounds: an end-to-end metric whose A/A medians differ
// by more than its bound cannot carry that bound. The sets' runs alternate
// (and alternate which goes first), so a slow minute on the machine lands
// on both; pair p runs both sides on seed+p.
func runAA(seed int64, seconds float64) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for _, w := range workloads {
		for p := 0; p < aaPairs; p++ {
			for turn := 0; turn < 2; turn++ {
				res, err := runChild(w.name, seed+int64(p), seconds, 0)
				if err != nil {
					return err
				}
				set := sets[(turn+p)%2]
				for _, d := range endToEnd {
					k := key{w.name, d.name}
					set[k] = append(set[k], res.Metrics[d.name].Value)
				}
				fmt.Println()
			}
		}
	}
	fmt.Printf("medians of %d runs per set\n", aaPairs)
	fmt.Printf("%-13s %-14s %-5s %14s %14s %9s %6s\n", "workload", "metric", "unit", "first", "second", "diff", "bound")
	over := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.name}
			a, b := median(sets[0][k]), median(sets[1][k])
			diff := (b - a) / a
			verdict := ""
			if math.Abs(diff) > d.bound {
				verdict = "  OVER"
				over++
			}
			fmt.Printf("%-13s %-14s %-5s %14.6g %14.6g %+8.2f%% %5.0f%%%s\n", w.name, d.name, d.unit, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d of %d A/A comparisons differ by more than their bound", over, len(workloads)*len(endToEnd))
	}
	return nil
}
