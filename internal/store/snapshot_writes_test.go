package store

import (
	"bytes"
	"testing"
)

// deltaSnapshot serializes a store produced by merging a live delta (novel
// terms, a duplicate insert and a delete included) into a base — the shape
// /snapshot serves while writes are pending. The snapshot format must not
// care whether its source store was loaded or merged.
func deltaSnapshot(t testing.TB, withIndex bool) []byte {
	t.Helper()
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: withIndex})
	teaches := st.Predicates.Lookup("<teaches>")
	profA := st.Resources.Lookup("<ProfessorA>")
	d := (&Delta{}).With([]Verdict{
		{S: st.Resources.Encode("<ProfessorZ>"), P: st.Predicates.Encode("<advises>"), O: st.Resources.Encode("<StudentZ>"), Insert: true},
		{S: profA, P: teaches, O: st.Resources.Lookup("<Mathematics>"), Insert: true}, // duplicate of a base triple
		{S: profA, P: teaches, O: st.Resources.Lookup("<Physics>")},
	})
	merged := ApplyDelta(st, d, InferBuildOptions(st))
	var buf bytes.Buffer
	if err := merged.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDeltaSnapshotCanonical: a snapshot of a delta-merged store loads
// cleanly, and re-saving the loaded store reproduces the exact bytes — the
// serialization is canonical regardless of whether tables were built by
// LoadTriples, ApplyDelta (aliased and rebuilt slices mixed), or
// LoadSnapshot.
func TestDeltaSnapshotCanonical(t *testing.T) {
	for _, withIndex := range []bool{true, false} {
		snap := deltaSnapshot(t, withIndex)
		loaded, err := LoadSnapshot(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("withIndex=%v: load: %v", withIndex, err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("withIndex=%v: re-save: %v", withIndex, err)
		}
		if !bytes.Equal(snap, again.Bytes()) {
			t.Errorf("withIndex=%v: re-saved snapshot differs (%d vs %d bytes)",
				withIndex, len(snap), again.Len())
		}
	}
}
