package store

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parj/internal/rdf"
)

func TestSnapshotRoundTrip(t *testing.T) {
	orig := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	assertStoresEqual(t, orig, got)
	// Derived structures rebuilt.
	if got.SO(1).Index == nil {
		t.Error("pos index not rebuilt")
	}
	if got.SO(1).Threshold == 0 {
		t.Error("threshold lost")
	}
}

func assertStoresEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if a.NumTriples() != b.NumTriples() || a.NumPredicates() != b.NumPredicates() {
		t.Fatalf("shape mismatch: %s vs %s", a, b)
	}
	if a.Resources.Len() != b.Resources.Len() || a.Predicates.Len() != b.Predicates.Len() {
		t.Fatal("dictionary sizes differ")
	}
	for id := uint32(1); id <= a.Resources.MaxID(); id++ {
		if a.Resources.Decode(id) != b.Resources.Decode(id) {
			t.Fatalf("resource %d: %q vs %q", id, a.Resources.Decode(id), b.Resources.Decode(id))
		}
	}
	for p := 1; p <= a.NumPredicates(); p++ {
		for _, pair := range [][2]*Table{{a.SO(uint32(p)), b.SO(uint32(p))}, {a.OS(uint32(p)), b.OS(uint32(p))}} {
			if !reflect.DeepEqual(pair[0].Keys, pair[1].Keys) ||
				!reflect.DeepEqual(pair[0].Offs, pair[1].Offs) ||
				!reflect.DeepEqual(pair[0].Vals, pair[1].Vals) {
				t.Fatalf("predicate %d table mismatch", p)
			}
		}
	}
	if !reflect.DeepEqual(a.Directory(), b.Directory()) {
		t.Fatal("directory mismatch")
	}
}

func TestSnapshotWithoutIndex(t *testing.T) {
	orig := LoadTriples(paperExample, BuildOptions{})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SO(1).Index != nil {
		t.Error("index built although the original had none")
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	orig := LoadTriples(nil, BuildOptions{})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriples() != 0 || got.NumPredicates() != 0 {
		t.Errorf("empty snapshot loaded as %s", got)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC////////rest"),
		[]byte(snapshotMagic + "\xff\xff\xff\xff"), // bad version
	}
	for _, c := range cases {
		if _, err := LoadSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("LoadSnapshot(%q...) succeeded", c)
		}
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	orig := LoadTriples(paperExample, BuildOptions{})
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated snapshot (%d/%d bytes) accepted", cut, len(full))
		}
	}
}

// Property: snapshot round-trip preserves the triple set for random stores.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		orig := LoadTriples(randomTriples(rng, 200), BuildOptions{BuildPosIndex: rng.Intn(2) == 0})
		var buf bytes.Buffer
		if err := orig.Save(&buf); err != nil {
			return false
		}
		got, err := LoadSnapshot(&buf)
		if err != nil {
			return false
		}
		want := map[rdf.Triple]bool{}
		orig.Triples(func(s, p, o uint32) bool {
			want[rdf.Triple{S: orig.Resources.Decode(s), P: orig.Predicates.Decode(p), O: orig.Resources.Decode(o)}] = true
			return true
		})
		n := 0
		ok := true
		got.Triples(func(s, p, o uint32) bool {
			n++
			tr := rdf.Triple{S: got.Resources.Decode(s), P: got.Predicates.Decode(p), O: got.Resources.Decode(o)}
			if !want[tr] {
				ok = false
				return false
			}
			return true
		})
		return ok && n == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// rawSnapshot writes a snapshot in format version holding only a resource
// dictionary: no predicates, no tables.
func rawSnapshot(version uint32, resources []string) []byte {
	var b bytes.Buffer
	b.WriteString(snapshotMagic)
	for _, v := range []uint32{version, 0, uint32(len(resources))} {
		writeU32(&b, v)
	}
	for _, s := range resources {
		if version < 3 {
			b.WriteString(s + "\n")
		} else {
			writeU32(&b, uint32(len(s)))
			b.WriteString(s)
		}
	}
	writeU32(&b, 0) // no predicate terms
	writeU32(&b, 0) // no predicate tables
	if version >= 2 {
		writeU32(&b, crc32.ChecksumIEEE(b.Bytes()))
	}
	return b.Bytes()
}

// TestSnapshotVersionsAndRepeatedTerms: versions 1 and 2 still load, and in
// every version a term repeating an earlier one is corruption. It cannot
// take the next ID, and every later ID would shift (version 1 has no
// checksum to notice).
func TestSnapshotVersionsAndRepeatedTerms(t *testing.T) {
	for v := uint32(1); v <= snapshotVersion; v++ {
		st, err := LoadSnapshot(bytes.NewReader(rawSnapshot(v, []string{"<a>", "<b>"})))
		if err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
		if st.Resources.Len() != 2 || st.Resources.Decode(2) != "<b>" {
			t.Fatalf("version %d: loaded %d resources", v, st.Resources.Len())
		}
		_, err = LoadSnapshot(bytes.NewReader(rawSnapshot(v, []string{"<a>", "<b>", "<a>", "<c>"})))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("version %d with a repeated term: error %v, want ErrCorruptSnapshot", v, err)
		}
	}
}
