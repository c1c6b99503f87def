package store

import (
	"bytes"
	"errors"
	"testing"
)

func validSnapshot(t testing.TB, withIndex bool) []byte {
	t.Helper()
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: withIndex})
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotDetectsBitFlips: every single-bit corruption of a snapshot —
// header, dictionaries, tables, or the checksum itself — must be rejected
// with ErrCorruptSnapshot. The trailing CRC32 is what makes this exhaustive:
// structural validation alone cannot notice a flipped value ID.
func TestSnapshotDetectsBitFlips(t *testing.T) {
	snap := validSnapshot(t, true)
	for pos := 0; pos < len(snap); pos++ {
		// Every bit, not just the low one: the high bits of a length prefix
		// or a stored search threshold are the ones that can send a loader
		// into a huge allocation or an unbounded loop before the CRC vetoes.
		for bit := 0; bit < 8; bit++ {
			corrupted := bytes.Clone(snap)
			corrupted[pos] ^= 1 << bit
			_, err := LoadSnapshot(bytes.NewReader(corrupted))
			if err == nil {
				t.Fatalf("flip of bit %d at byte %d/%d accepted", bit, pos, len(snap))
			}
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("flip of bit %d at byte %d: error %v does not wrap ErrCorruptSnapshot", bit, pos, err)
			}
		}
	}
}

// TestSnapshotTruncationTyped: every truncation point yields the typed
// corruption error (the older test only checked err != nil).
func TestSnapshotTruncationTyped(t *testing.T) {
	snap := validSnapshot(t, false)
	for cut := 0; cut < len(snap); cut += 7 {
		if _, err := LoadSnapshot(bytes.NewReader(snap[:cut])); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("truncation at %d/%d: error %v does not wrap ErrCorruptSnapshot", cut, len(snap), err)
		}
	}
}

// TestSnapshotGarbageTyped: the garbage cases of the basic test, asserted
// against the typed sentinel callers are told to dispatch on.
func TestSnapshotGarbageTyped(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC////////rest"),
		[]byte(snapshotMagic + "\xff\xff\xff\xff"),
	}
	for _, c := range cases {
		if _, err := LoadSnapshot(bytes.NewReader(c)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("LoadSnapshot(%q...): error %v does not wrap ErrCorruptSnapshot", c, err)
		}
	}
}

// TestSnapshotHugeLengthPrefix: a corrupted slice-length prefix claiming
// billions of entries must fail on the missing data without attempting a
// matching allocation first.
func TestSnapshotHugeLengthPrefix(t *testing.T) {
	snap := validSnapshot(t, false)
	corrupted := bytes.Clone(snap)
	// The first table slice length lives past magic+version+flag+dicts;
	// overwrite bytes near the middle with a huge little-endian length and
	// rely on the loader to fail cleanly wherever the stream breaks.
	for pos := len(snap) / 3; pos < len(snap)/3+4; pos++ {
		corrupted[pos] = 0xff
	}
	corrupted[len(snap)/3+3] = 0x7f
	if _, err := LoadSnapshot(bytes.NewReader(corrupted)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("huge-length snapshot: error %v does not wrap ErrCorruptSnapshot", err)
	}
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader. The loader
// must never panic, never over-allocate, and classify every rejection as
// ErrCorruptSnapshot; anything it does accept must be iterable.
func FuzzLoadSnapshot(f *testing.F) {
	valid := validSnapshot(f, true)
	plain := validSnapshot(f, false)
	f.Add(valid)
	f.Add(plain)
	f.Add(deltaSnapshot(f, true)) // snapshot taken with unreconciled deltas merged in
	f.Add(valid[:len(valid)/2])      // truncation
	f.Add(valid[:len(valid)-3])      // truncated checksum
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40 // payload bit flip
	f.Add(flipped)
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("error %v does not wrap ErrCorruptSnapshot", err)
			}
			return
		}
		// Accepted: the store must hold together well enough to walk.
		n := 0
		st.Triples(func(s, p, o uint32) bool {
			n++
			return n < 1<<20
		})
	})
}
