package bench

// json.go — machine-readable benchmark reports for regression tracking.
//
// A Report's text table is for people; CI needs numbers it can diff across
// commits. The JSON form records the median time of every (query, engine)
// cell, and CompareReports flags the medians that grew.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// WriteFile serializes the report with stable formatting.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteFile.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// compareFloorMS is the absolute floor below which CompareReports ignores
// baseline medians: a 0.3ms cell regressing to 0.4ms is scheduler jitter,
// not a perf bug, and gating CI on it would make the check cry wolf.
const compareFloorMS = 1.0

// CompareReports returns one message per "query/engine" median in cur that
// exceeds its baseline counterpart by more than tol (0.10 = +10%). Keys
// present in only one report are skipped — engines and queries may be
// added or removed between commits without breaking the check.
func CompareReports(baseline, cur *Report, tol float64) []string {
	var regressions []string
	keys := make([]string, 0, len(baseline.Medians))
	for k := range baseline.Medians {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		base := baseline.Medians[k]
		now, ok := cur.Medians[k]
		if !ok || base < compareFloorMS {
			continue
		}
		if now > base*(1+tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fms -> %.2fms (+%.1f%%, tolerance %.0f%%)",
					k, base, now, (now/base-1)*100, tol*100))
		}
	}
	return regressions
}

// JSONExperiments lists the experiments "-exp all -json" writes: the ones
// with a committed baseline under docs/results.
func JSONExperiments() []string {
	return []string{"table5", "skew", "cyclic", "slo"}
}
