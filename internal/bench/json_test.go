package bench

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 9, 2}, 3},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	base := &Report{Medians: map[string]float64{
		"L1/AdIndex-morsel": 100,
		"L2/AdIndex-morsel": 100,
		"L3/AdIndex-morsel": 0.4, // below the absolute floor
		"L4/gone":           100, // engine removed in cur
	}}
	cur := &Report{Medians: map[string]float64{
		"L1/AdIndex-morsel": 108, // +8%: within tolerance
		"L2/AdIndex-morsel": 115, // +15%: regression
		"L3/AdIndex-morsel": 4.0, // 10x, but sub-floor baseline
		"L5/new":            50,  // engine added in cur
	}}
	regs := CompareReports(base, cur, 0.10)
	if len(regs) != 1 {
		t.Fatalf("got %d regressions %v, want exactly 1 (L2)", len(regs), regs)
	}
	if want := "L2/AdIndex-morsel"; len(regs[0]) < len(want) || regs[0][:len(want)] != want {
		t.Fatalf("regression %q does not name L2/AdIndex-morsel", regs[0])
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := &Report{
		Name:    "skew",
		Blocks:  3,
		Params:  map[string]string{"workers": "8"},
		Medians: map[string]float64{"TRI/Morsel-8": 2.25},
		Counts:  map[string]int64{"TRI": 1234},
		Notes:   map[string]string{"speedup/TRI": "3.80"},
	}
	path := filepath.Join(t.TempDir(), "BENCH_skew.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != r.Name || got.Blocks != r.Blocks ||
		got.Medians["TRI/Morsel-8"] != 2.25 || got.Counts["TRI"] != 1234 ||
		got.Notes["speedup/TRI"] != "3.80" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestJSONSkewReport runs the skew experiment end to end in report form
// and checks the acceptance property of the scheduler change: the morsel
// engine beats static sharding on the Zipfian triangle join at 8 workers.
// A modest 1.2x bound keeps the test robust on noisy CI machines; the
// committed BENCH_skew.json documents the real margin.
func TestJSONSkewReport(t *testing.T) {
	rep, err := Run("skew", ExpConfig{Blocks: 3, Timeout: 2 * time.Minute})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range SkewQueries() {
		if rep.Counts[q.Name] <= 0 {
			t.Fatalf("%s: empty result", q.Name)
		}
		for _, e := range []string{"Static-8", "Morsel-8"} {
			if rep.Medians[q.Name+"/"+e] <= 0 {
				t.Fatalf("%s/%s: no median recorded", q.Name, e)
			}
		}
	}
	sp, err := strconv.ParseFloat(rep.Notes["speedup/TRI"], 64)
	if err != nil {
		t.Fatalf("speedup note: %v (notes %v)", err, rep.Notes)
	}
	if sp < 1.2 {
		t.Fatalf("morsel scheduler speedup on skewed TRI = %.2fx, want >= 1.2x", sp)
	}
}

// TestJSONCyclicReport runs the cyclic join-operator experiment end to end
// in report form and checks the acceptance property of the WCOJ operator:
// it beats the binary-join pipeline on the dense triangle query at 8
// workers. The committed BENCH_cyclic.json documents the real margin
// (>= 5x); the in-test bound is a modest 1.5x so noisy CI machines don't
// flake, while still catching an operator that lost its asymptotic edge.
func TestJSONCyclicReport(t *testing.T) {
	rep, err := Run("cyclic", ExpConfig{Blocks: 3, Timeout: 2 * time.Minute})
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range CyclicQueries() {
		if rep.Counts[q.Name] <= 0 {
			t.Fatalf("%s: empty result", q.Name)
		}
		for _, e := range []string{"WCOJ-8", "Pipe-8"} {
			if rep.Medians[q.Name+"/"+e] <= 0 {
				t.Fatalf("%s/%s: no median recorded", q.Name, e)
			}
		}
	}
	sp, err := strconv.ParseFloat(rep.Notes["speedup/TRI"], 64)
	if err != nil {
		t.Fatalf("speedup note: %v (notes %v)", err, rep.Notes)
	}
	if sp < 1.5 {
		t.Fatalf("WCOJ speedup on dense TRI = %.2fx, want >= 1.5x", sp)
	}
}

// TestBenchRegression is the regression tier of the harness: pointed at a
// committed baseline report via PARJ_BENCH_BASELINE, it replays the same
// experiment at the baseline's parameters and fails if any median
// regresses more than 10%. Without the env var it skips, so ordinary `go
// test` stays fast and deterministic; CI runs it as a non-blocking report
// step against docs/results/.
func TestBenchRegression(t *testing.T) {
	path := os.Getenv("PARJ_BENCH_BASELINE")
	if path == "" {
		t.Skip("set PARJ_BENCH_BASELINE=<BENCH_*.json> to enable the regression check")
	}
	base, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExpConfig{Blocks: base.Blocks, Timeout: 5 * time.Minute}
	if s, err := strconv.Atoi(base.Params["lubm_scale"]); err == nil {
		cfg.LUBMScale = s
	}
	cur, err := Run(base.Name, cfg)
	if err == nil {
		err = cur.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range CompareReports(base, cur, 0.10) {
		t.Errorf("regression vs %s: %s", path, reg)
	}
}
