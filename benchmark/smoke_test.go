package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the program
// has to agree with.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// smokeRun runs one workload at tiny scale and returns its last output line.
func smokeRun(t *testing.T, workload, trace string) (result, int, string) {
	t.Helper()
	out := t.TempDir()
	var buf bytes.Buffer
	code := realMain([]string{"--workload", workload, "--seed", "5", "--seconds", "0.15", "--trace", trace,
		"-smoke", "-scratch", t.TempDir(), "-out", out}, &buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, buf.String())
	}
	return res, code, out
}

// Every workload and metric BENCHMARK.json names appears in the program's
// output, with the same unit, and nothing else does; and the bypass
// predictions the benchmark is built on hold.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
	}
	layers := make(map[string]map[string]float64)
	for _, w := range b.Workloads {
		for trace, want := range map[string][]jsonMetric{"0": b.EndToEnd, "1": b.PerLayer} {
			res, code, out := smokeRun(t, w.Name, trace)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v", w.Name, trace, code, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics reported, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				if trace == "0" && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if trace == "1" {
				layers[w.Name] = make(map[string]float64)
				for name, v := range res.Metrics {
					layers[w.Name][name] = v.Value
				}
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}

	zero := func(workload, metric string) {
		t.Helper()
		if v := layers[workload][metric]; v != 0 {
			t.Errorf("%s: %s = %v, predicted 0 (layer bypassed)", workload, metric, v)
		}
	}
	positive := func(workload, metric string) {
		t.Helper()
		if v := layers[workload][metric]; v <= 0 {
			t.Errorf("%s: %s = %v, predicted > 0 (layer exercised)", workload, metric, v)
		}
	}
	for _, w := range []string{"lubm-join", "lubm-point", "cyclic"} {
		zero(w, "live.merge_share")
		zero(w, "wal.fsyncs_per_batch")
		zero(w, "remote.hop_ms")
		positive(w, "core.execute_ms")
		positive(w, "rdf.parse_s")
	}
	zero("lubm-join", "optimizer.wcoj_share")
	zero("lubm-point", "optimizer.wcoj_share")
	positive("cyclic", "optimizer.wcoj_share")
	positive("lubm-point", "dict.decode_ms")
	positive("churn", "live.merge_share")
	positive("churn", "live.apply_us")
	positive("churn", "churn.write_late_tail_ms")
	zero("churn", "wal.fsyncs_per_batch")
	positive("durable-write", "wal.fsyncs_per_batch")
	positive("durable-write", "wal.commit_wait_ms")
	positive("durable-write", "wal.bytes_per_triple")
	zero("durable-write", "core.execute_ms")
	positive("endpoint", "remote.resp_bytes_per_row")
	positive("endpoint", "cluster.attempts_per_shard")
	positive("endpoint", "dict.decode_ms")
}

// A wrong expected count must fail the run: non-zero exit, correct=false.
func TestCorruptedOracleFailsTheRun(t *testing.T) {
	corruptOracle = true
	defer func() { corruptOracle = false }()
	res, code, _ := smokeRun(t, "lubm-join", "0")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted oracle went unnoticed: exit %d, result %+v", code, res)
	}
}
