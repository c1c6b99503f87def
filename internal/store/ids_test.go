package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"parj/internal/dict"
	"parj/internal/lubm"
	"parj/internal/rdf"
)

// TestIDsGolden pins ID assignment: the SHA-256 of both dictionaries' terms
// in ID order and of every table of a LUBM scale-2 store loaded from
// N-Triples must equal testdata/ids.golden. IDs are dense, start at 1 and
// follow first occurrence in the input; a change to the dictionary or the
// loader must not move a single one. The golden file is never regenerated
// by a change that claims to keep IDs.
func TestIDsGolden(t *testing.T) {
	st := loadLUBMDoc(t, 2)
	h := sha256.New()
	u32 := func(v uint32) { h.Write(binary.LittleEndian.AppendUint32(nil, v)) }
	for _, d := range []*dict.Dict{st.Resources, st.Predicates} {
		u32(uint32(d.Len()))
		for id := uint32(1); id <= d.MaxID(); id++ {
			term := d.Decode(id)
			u32(uint32(len(term)))
			h.Write([]byte(term))
		}
	}
	for p := uint32(1); p <= uint32(st.NumPredicates()); p++ {
		for _, tb := range []*Table{st.SO(p), st.OS(p)} {
			u32(tb.Threshold)
			u32(tb.IndexThreshold)
			for _, arr := range [][]uint32{tb.Keys, tb.Offs, tb.Vals} {
				u32(uint32(len(arr)))
				for _, v := range arr {
					u32(v)
				}
			}
		}
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), readGolden(t, "testdata/ids.golden"); got != want {
		t.Fatalf("IDs or tables moved: digest %s, testdata/ids.golden has %s", got, want)
	}
}

// TestSnapshotBytesGolden pins the snapshot format: the SHA-256 of the
// bytes Save writes for a LUBM scale-1 store loaded from N-Triples must
// equal testdata/snapshot.golden. Replica bootstrap over /snapshot and
// checkpoints exchange these bytes, so a change to how the dictionary
// holds its terms must not move one. The golden file was recorded before
// IRIs were split into prefix and local part, and is never regenerated by
// a change that claims to keep the format.
func TestSnapshotBytesGolden(t *testing.T) {
	st := loadLUBMDoc(t, 1)
	h := sha256.New()
	if err := st.Save(h); err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), readGolden(t, "testdata/snapshot.golden"); got != want {
		t.Fatalf("snapshot bytes moved: digest %s, testdata/snapshot.golden has %s", got, want)
	}
}

// loadLUBMDoc loads the LUBM store of the given scale through the
// N-Triples loader, as a file would arrive.
func loadLUBMDoc(t *testing.T, scale int) *Store {
	t.Helper()
	var doc bytes.Buffer
	w := rdf.NewWriter(&doc)
	lubm.Generate(scale, lubm.Config{}, func(tr rdf.Triple) {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadNTriples(&doc, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func readGolden(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(b))
}
