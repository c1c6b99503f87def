package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"slices"
	"unsafe"

	"parj/internal/dict"
	"parj/internal/posindex"
	"parj/internal/search"
)

// The paper's prototype persisted its tables in SQLite and rebuilt the
// in-memory structures at startup; this snapshot format plays that role:
// a store saves its dictionary-encoded tables once and later loads them
// without re-parsing N-Triples or re-sorting. ID-to-Position indexes and
// simulated base addresses are rebuilt at load (they are derived data).
//
// Layout (version 3): magic, format version, payload, then a CRC32 (IEEE)
// of everything before it. LoadSnapshot verifies the version, the checksum,
// and the structural invariants of every table, and reports any violation
// as ErrCorruptSnapshot — a bit-flipped or truncated snapshot file must
// never panic the loader or build a store that panics later. A dictionary
// is its term count, then each term in ID order as a little-endian uint32
// length and its bytes, so a term may hold any byte. Versions 1 (no
// checksum) and 2 (newline-terminated terms) are still read.

const (
	snapshotMagic   = "PARJSNAP"
	snapshotVersion = 3
)

// ErrCorruptSnapshot reports a snapshot that failed an integrity check:
// bad magic, unsupported version, checksum mismatch, truncation, or a
// structural invariant violation. All LoadSnapshot corruption errors wrap
// it; dispatch with errors.Is.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// corruptf builds an ErrCorruptSnapshot-wrapping error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("store: %w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// Save writes a binary snapshot of the store: a format-version header, the
// dictionaries and tables, and a trailing CRC32 over everything before it.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sum := crc32.NewIEEE()
	hw := io.MultiWriter(bw, sum) // everything written here is checksummed
	if _, err := hw.Write([]byte(snapshotMagic)); err != nil {
		return err
	}
	if err := writeU32(hw, snapshotVersion); err != nil {
		return err
	}
	hasIndex := uint32(0)
	if len(s.so) > 0 && s.so[0].Index != nil {
		hasIndex = 1
	}
	if err := writeU32(hw, hasIndex); err != nil {
		return err
	}
	// Dictionaries, length-prefixed.
	for _, d := range []*dict.Dict{s.Resources, s.Predicates} {
		if err := writeDict(hw, d); err != nil {
			return err
		}
	}
	if err := writeU32(hw, uint32(len(s.so))); err != nil {
		return err
	}
	for p := range s.so {
		for _, t := range []*Table{&s.so[p], &s.os[p]} {
			if err := writeU32(hw, t.Threshold); err != nil {
				return err
			}
			if err := writeU32(hw, t.IndexThreshold); err != nil {
				return err
			}
			for _, arr := range [][]uint32{t.Keys, t.Offs, t.Vals} {
				if err := writeU32Slice(hw, arr); err != nil {
					return err
				}
			}
		}
	}
	// The checksum itself is written outside the checksummed stream.
	if err := writeU32(bw, sum.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// snapReader reads the snapshot payload while feeding every consumed byte
// into the running checksum, so the trailing CRC can be verified without
// buffering the payload.
type snapReader struct {
	br  *bufio.Reader
	sum hash.Hash32
}

func (r *snapReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	r.sum.Write(p[:n])
	return n, err
}

func (r *snapReader) ReadString(delim byte) (string, error) {
	s, err := r.br.ReadString(delim)
	r.sum.Write([]byte(s))
	return s, err
}

// LoadSnapshot reconstructs a store written by Save, verifying the format
// version, the CRC32 checksum, and every table's structural invariants.
// Derived structures (ID-to-Position indexes when the snapshot had them,
// simulated base addresses, the directory) are rebuilt. Corruption in any
// form is reported as an error wrapping ErrCorruptSnapshot.
func LoadSnapshot(r io.Reader) (*Store, error) {
	sr := &snapReader{br: bufio.NewReaderSize(r, 1<<20), sum: crc32.NewIEEE()}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(sr, magic); err != nil {
		return nil, corruptf("snapshot header: %v", err)
	}
	if string(magic) != snapshotMagic {
		return nil, corruptf("not a PARJ snapshot (magic %q)", magic)
	}
	version, err := readU32(sr)
	if err != nil {
		return nil, corruptf("snapshot version: %v", err)
	}
	if version < 1 || version > snapshotVersion {
		return nil, corruptf("unsupported snapshot version %d", version)
	}
	hasIndex, err := readU32(sr)
	if err != nil {
		return nil, corruptf("header: %v", err)
	}
	if hasIndex > 1 {
		return nil, corruptf("index flag %d out of range", hasIndex)
	}
	st := &Store{Resources: dict.New(), Predicates: dict.New()}
	for _, d := range []*dict.Dict{st.Resources, st.Predicates} {
		if err := readDict(sr, d, version); err != nil {
			return nil, err
		}
	}
	nPred, err := readU32(sr)
	if err != nil {
		return nil, corruptf("predicate count: %v", err)
	}
	if int(nPred) > st.Predicates.Len() {
		return nil, corruptf("snapshot has %d predicates but dictionary only %d", nPred, st.Predicates.Len())
	}
	st.so = make([]Table, nPred)
	st.os = make([]Table, nPred)
	maxID := st.Resources.MaxID()
	for p := 0; p < int(nPred); p++ {
		for ti, t := range []*Table{&st.so[p], &st.os[p]} {
			if t.Threshold, err = readU32(sr); err != nil {
				return nil, corruptf("predicate %d: %v", p+1, err)
			}
			if t.IndexThreshold, err = readU32(sr); err != nil {
				return nil, corruptf("predicate %d: %v", p+1, err)
			}
			// No writer produces a threshold past ValueThreshold's ceiling;
			// refuse it here rather than hand it to WindowOf below, which
			// runs before the checksum gets to veto.
			if t.Threshold > 1<<31 || t.IndexThreshold > 1<<31 {
				return nil, corruptf("predicate %d replica %d: search thresholds %d/%d out of range",
					p+1, ti, t.Threshold, t.IndexThreshold)
			}
			if t.Keys, err = readU32Slice(sr); err != nil {
				return nil, corruptf("predicate %d keys: %v", p+1, err)
			}
			if t.Offs, err = readU32Slice(sr); err != nil {
				return nil, corruptf("predicate %d offsets: %v", p+1, err)
			}
			if t.Vals, err = readU32Slice(sr); err != nil {
				return nil, corruptf("predicate %d values: %v", p+1, err)
			}
			if err := validateCSR(t); err != nil {
				return nil, corruptf("snapshot predicate %d replica %d: %v", p+1, ti, err)
			}
			// Keys are strictly ascending, so bounding the first and last
			// bounds them all; an out-of-dictionary key (IDs are 1-based)
			// would blow up the ID-to-Position index build below, before
			// the checksum gets a chance to veto.
			if len(t.Keys) > 0 && (t.Keys[0] == 0 || t.Keys[len(t.Keys)-1] > maxID) {
				return nil, corruptf("snapshot predicate %d replica %d: keys [%d,%d] outside resource id space [1,%d]",
					p+1, ti, t.Keys[0], t.Keys[len(t.Keys)-1], maxID)
			}
			if hasIndex == 1 {
				t.Index = posindex.Build(t.Keys, maxID, 0)
			}
			if t.Threshold == 0 {
				t.Threshold = search.ValueThreshold(t.Keys, search.DefaultBinaryWindow)
			}
			// The format stores thresholds, not the windows they came from.
			t.BinaryWindow = uint32(search.WindowOf(t.Keys, t.Threshold, search.DefaultBinaryWindow))
			t.IndexWindow = uint32(search.WindowOf(t.Keys, t.IndexThreshold, search.DefaultIndexWindow))
		}
	}
	st.finish()
	if version >= 2 {
		// The trailing checksum is read from the raw stream — it covers
		// everything consumed so far but not itself.
		want := sr.sum.Sum32()
		got, err := readU32(sr.br)
		if err != nil {
			return nil, corruptf("missing checksum: %v", err)
		}
		if got != want {
			return nil, corruptf("checksum mismatch: stored %08x, computed %08x", got, want)
		}
	}
	return st, nil
}

// validateCSR rejects corrupted snapshots before they can panic later.
func validateCSR(t *Table) error {
	if len(t.Offs) != len(t.Keys)+1 {
		return fmt.Errorf("offsets length %d != keys+1 (%d)", len(t.Offs), len(t.Keys)+1)
	}
	if len(t.Offs) > 0 {
		if t.Offs[0] != 0 {
			return fmt.Errorf("first offset %d != 0", t.Offs[0])
		}
		if int(t.Offs[len(t.Offs)-1]) != len(t.Vals) {
			return fmt.Errorf("last offset %d != len(vals) %d", t.Offs[len(t.Offs)-1], len(t.Vals))
		}
	}
	for i := 1; i < len(t.Keys); i++ {
		if t.Keys[i] <= t.Keys[i-1] {
			return fmt.Errorf("keys not strictly ascending at %d", i)
		}
		if t.Offs[i] < t.Offs[i-1] {
			return fmt.Errorf("offsets not monotone at %d", i)
		}
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func writeU32Slice(w io.Writer, xs []uint32) error {
	if err := writeU32(w, uint32(len(xs))); err != nil {
		return err
	}
	buf := make([]byte, 0, 4096)
	for _, v := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, v)
		if len(buf) >= 4096 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readU32Slice(r io.Reader) ([]uint32, error) {
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	const maxLen = 1 << 31
	if n > maxLen {
		return nil, fmt.Errorf("slice length %d exceeds limit", n)
	}
	// Grow incrementally: a corrupted length prefix must fail on the missing
	// data, not translate into a multi-gigabyte up-front allocation.
	capHint := int(n)
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	out := make([]uint32, 0, capHint)
	buf := make([]byte, 4096)
	for len(out) < int(n) {
		want := (int(n) - len(out)) * 4
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, err
		}
		for off := 0; off < want; off += 4 {
			out = append(out, binary.LittleEndian.Uint32(buf[off:]))
		}
	}
	return out, nil
}

func writeDict(w io.Writer, d *dict.Dict) error {
	// One consistent (length, contents) view: a concurrent Encode must not
	// let the recorded count and the written terms disagree.
	v := d.SnapshotStrings()
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 64<<10), uint32(v.Len()))
	for id := uint32(1); id <= uint32(v.Len()); id++ {
		term := v.At(id)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(term)))
		buf = append(buf, term...)
		if len(buf) >= 64<<10 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// readDict reads a dictionary into the empty d. Every term must take the
// next ID: a repeated term would shift every later one.
func readDict(r *snapReader, d *dict.Dict, version uint32) error {
	n, err := readU32(r)
	if err != nil {
		return corruptf("dictionary size: %v", err)
	}
	var buf []byte
	for id := uint32(1); id <= n; id++ {
		var term string
		if version < 3 {
			line, err := r.ReadString('\n')
			if err != nil {
				return corruptf("dictionary entry %d: %v", id, err)
			}
			term = line[:len(line)-1]
		} else {
			if buf, err = readTerm(r, buf); err != nil {
				return corruptf("dictionary entry %d: %v", id, err)
			}
			// Encode copies a new term and keeps nothing of its argument,
			// so the term may alias buf, which the next entry overwrites.
			term = unsafe.String(unsafe.SliceData(buf), len(buf))
		}
		if got := d.Encode(term); got != id {
			return corruptf("dictionary entry %d repeats entry %d", id, got)
		}
	}
	return nil
}

// readTerm reads one length-prefixed term into buf, growing it as the bytes
// arrive: a corrupted length must fail on the missing data, not translate
// into a huge allocation.
func readTerm(r io.Reader, buf []byte) ([]byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), 64<<10)
		buf = slices.Grow(buf, k)[:len(buf)+k]
		if _, err := io.ReadFull(r, buf[len(buf)-k:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}
