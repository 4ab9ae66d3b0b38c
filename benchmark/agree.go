package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// worseBy returns by how much of a second is worse than first, as a
// share of first; negative when it is better.
func (m specMetric) worseBy(first, second float64) float64 {
	if first == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (first - second) / first
	}
	return (second - first) / first
}

// runAgree measures every workload BENCHMARK.json lists twice on this
// build, each time in a process of its own, and fails if any end-to-end
// metric of the second run differs from the first by more than its
// bound: two sets of runs of the same code must agree within the
// benchmark's own bounds.
func runAgree(seed int64, specPath, outDir string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	disagreements := 0
	for _, sw := range spec.Workloads {
		w := findWorkload(sw.Name)
		if w == nil {
			return fmt.Errorf("%s lists workload %q, the program has none of that name", specPath, sw.Name)
		}
		var runs [2]metricSet
		for k := range runs {
			out, err := child(w, seed, 0, outDir)
			if err != nil {
				os.Stdout.Write(out)
				return err
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line contractLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s: result line: %w", w.Name, err)
			}
			runs[k] = line.Metrics
		}
		for _, m := range spec.EndToEnd {
			first, second := runs[0][m.Name].Value, runs[1][m.Name].Value
			diff := m.worseBy(first, second)
			verdict := "ok"
			if diff > m.Bound || -diff > m.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			fmt.Printf("%-14s %-12s %14.4f %14.4f %+7.1f%% (bound %.0f%%) %s\n",
				w.Name, m.Name, first, second, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagreements > 0 {
		return fmt.Errorf("%d end-to-end metrics differ by more than their bound", disagreements)
	}
	return nil
}
