package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the compare tool needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// side is one side of a comparison: one report, or several runs of the same
// commit (a comma-separated list on the command line).
type side []report

func loadSide(paths string) (side, error) {
	var s side
	for _, path := range strings.Split(paths, ",") {
		var r report
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, r)
	}
	return s, nil
}

// find returns a workload's untraced metric. With one run on the side it is
// that run's value and repetition samples; with several it is the median of
// the runs' values, and the runs' values are the samples.
func (s side) find(workload, metric string) (metricValue, bool) {
	var found []metricValue
	for _, r := range s {
		for _, w := range r.Workloads {
			if w.Name != workload || w.Traced {
				continue
			}
			for _, m := range w.Metrics {
				if m.Name == metric {
					found = append(found, m)
				}
			}
		}
	}
	switch len(found) {
	case 0:
		return metricValue{}, false
	case 1:
		return found[0], true
	}
	out := metricValue{Name: metric, Unit: found[0].Unit, N: len(found)}
	for _, m := range found {
		out.Samples = append(out.Samples, m.Value)
	}
	out.Value = median(out.Samples)
	return out, true
}

// spread is the interquartile range of a metric's samples (repetitions of
// one run, or the values of several runs) over its value; a metric measured
// once has none.
func spread(m metricValue) float64 {
	if len(m.Samples) < 4 || m.Value == 0 {
		return 0
	}
	return (quantile(m.Samples, 0.75) - quantile(m.Samples, 0.25)) / m.Value
}

// allBetter reports whether every sample of b reads better than every sample
// of a.
func allBetter(a, b metricValue, lower bool) bool {
	if len(a.Samples) == 0 || len(b.Samples) == 0 {
		return false
	}
	sa, sb := sorted(a.Samples), sorted(b.Samples)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// compareReports prints, per workload and end-to-end metric, both medians,
// the relative change, the bound and a verdict: worse when b is worse than a
// by more than the bound; unresolved when either side's spread is wider than
// the bound (unless every sample of b beats every sample of a); ok
// otherwise. Any worse fails the command. Each side is one report file or a
// comma-separated list of runs of the same commit.
func compareReports(pathA, pathB string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	a, err := loadSide(pathA)
	if err != nil {
		return err
	}
	b, err := loadSide(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	worse := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			ma, okA := a.find(w.Name, m.Name)
			mb, okB := b.find(w.Name, m.Name)
			if !okA || !okB {
				continue
			}
			lower := m.Better == "lower"
			change := (mb.Value - ma.Value) / ma.Value
			worsening := change
			if !lower {
				worsening = -change
			}
			verdict := "ok"
			switch {
			case worsening > m.Bound:
				verdict = "worse"
				worse++
			case max(spread(ma), spread(mb)) > m.Bound && !allBetter(ma, mb, lower):
				verdict = "unresolved"
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %+7.2f%% %5.1f%%  %s\n", w.Name, m.Name, ma.Value, mb.Value, 100*change, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}
