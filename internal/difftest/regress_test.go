package difftest

// Shrunk repros from differential-fuzzing failures live here, pinned as
// ordinary Go tests so a fixed bug stays fixed.
//
// Recording a new repro:
//
//  1. Run the matrix until it fails — either
//         go test ./internal/difftest/ -long -timeout 30m
//     or the soak CLI
//         go run ./cmd/parj-fuzz -trials 0
//  2. Both print a shrunk, ready-to-paste test function (built by
//     FormatRepro) next to the failure: the shrunk case — a minimal base
//     triple set and op list, whose queries are structurally simplified
//     too — and the failing engine-configuration name. Read and write
//     failures take the same form; a read repro's ops are all queries.
//  3. Paste it below, rename TestRegress_RENAME_ME to something
//     descriptive, and keep it after the fix lands: CheckRepro replays the
//     case against the oracle on every test run.
//
// Engine names embed strategy and worker count (e.g. "parj-AdBinary-w64");
// FindConfig resolves them on any host, so repros recorded on a wide
// machine replay on a laptop.

import (
	"reflect"
	"testing"

	"parj/internal/rdf"
	"parj/internal/reference"
)

// TestRegress_DedupAliasing pins the one real bug the harness has caught so
// far — in the oracle library itself, not an engine. reference.Dedup used to
// compact into its input's backing array (out := rows[:0]), silently
// corrupting the caller's slice. The metamorphic distinct-idempotence check
// passed base through Dedup and the later snapshot check then diffed the
// snapshot result against the corrupted base, producing a phantom
// divergence that vanished in every isolated repro. Dedup must leave its
// input untouched.
func TestRegress_DedupAliasing(t *testing.T) {
	rows := [][]string{{"<r17>"}, {"<r17>"}, {"<r28>"}, {"<r28>"}, {"<r28>"}, {"<r19>"}}
	orig := make([][]string, len(rows))
	copy(orig, rows)

	got := reference.Dedup(rows)

	want := [][]string{{"<r17>"}, {"<r28>"}, {"<r19>"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Dedup = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(rows, orig) {
		t.Errorf("Dedup mutated its input: %v, was %v", rows, orig)
	}
}

// TestRegress_TriadLimit0 pins LIMIT 0 on the TriAD baseline: eval must
// yield zero rows, not the unlimited result. (Investigated as a suspected
// divergence during harness bring-up; triad handles it — this keeps it so.)
func TestRegress_TriadLimit0(t *testing.T) {
	triples := []rdf.Triple{
		{S: "<a>", P: "<p>", O: "<b>"},
		{S: "<b>", P: "<p>", O: "<c>"},
	}
	CheckRepro(t, triples, []Op{{Query: "SELECT * WHERE { ?s <p> ?o } LIMIT 0"}}, "triad")
}
