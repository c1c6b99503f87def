// Package store implements PARJ's physical data storage (paper §3).
//
// After dictionary encoding, the triples are vertically partitioned: every
// predicate gets a two-column table, kept in two replicas — one sorted by
// subject then object (the S-O table) and one sorted by object then subject
// (the O-S table). Each replica is stored as a CSR pair: a sorted array of
// distinct keys (subjects for S-O, objects for O-S) plus a single
// contiguous value array addressed through offsets, which is the paper's
// "allocate the object arrays in a continuous memory area and keep offsets"
// refinement of Figure 1. The distinct-key array is the paper's simple form
// of column-specific compression, and the contiguous value area is what
// gives join probes their spatial locality.
package store

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"parj/internal/dict"
	"parj/internal/posindex"
	"parj/internal/rdf"
	"parj/internal/search"
)

// Table is one replica of a property's two-column table in CSR layout.
// Tables are immutable after Build and safe for concurrent reads.
type Table struct {
	// Keys holds the sorted distinct first-column values (subjects for an
	// S-O table, objects for an O-S table).
	Keys []uint32
	// Offs has len(Keys)+1 entries; the values of Keys[i] are
	// Vals[Offs[i]:Offs[i+1]], each run sorted ascending.
	Offs []uint32
	// Vals is the contiguous second-column storage.
	Vals []uint32

	// Threshold is the adaptive-search value threshold when the fallback
	// strategy is binary search; IndexThreshold when it is the
	// ID-to-Position index (paper §4.2 calibrates the two separately, the
	// index one coming out smaller).
	Threshold      uint32
	IndexThreshold uint32
	// BinaryWindow and IndexWindow are the position windows (default,
	// configured or calibrated) the two thresholds were derived from. They
	// belong to the table: a merge that rewrites Keys re-derives the
	// thresholds from them over the new key range.
	BinaryWindow uint32
	IndexWindow  uint32

	// Index is the optional ID-to-Position index over Keys; nil when the
	// store was built without indexes (its use is auxiliary, paper §4.2).
	Index *posindex.Index

	// Simulated base addresses for cache-tracing runs (Table 6). They are
	// assigned disjointly across all arrays of a store.
	KeysBase   uint64
	ValsBase   uint64
	IndexBases posindex.Bases
}

// Run returns the sorted values associated with the key at position pos.
func (t *Table) Run(pos int) []uint32 {
	return t.Vals[t.Offs[pos]:t.Offs[pos+1]]
}

// RunBounds returns the [start, end) bounds in Vals of the run for pos.
func (t *Table) RunBounds(pos int) (int, int) {
	return int(t.Offs[pos]), int(t.Offs[pos+1])
}

// NumKeys reports the number of distinct keys.
func (t *Table) NumKeys() int { return len(t.Keys) }

// NumTriples reports the number of triples stored in this replica.
func (t *Table) NumTriples() int { return len(t.Vals) }

// LookupKey locates id in Keys with plain binary search (no cursor state).
func (t *Table) LookupKey(id uint32) (int, bool) {
	i := sort.Search(len(t.Keys), func(i int) bool { return t.Keys[i] >= id })
	return i, i < len(t.Keys) && t.Keys[i] == id
}

// Store is the complete in-memory database: dictionaries plus both replicas
// of every property table. Immutable after Build; safe for concurrent use.
type Store struct {
	Resources  *dict.Dict // common numbering for subjects and objects
	Predicates *dict.Dict // separate numbering for predicates

	so []Table // so[p-1] is the S-O table of predicate ID p
	os []Table // os[p-1] is the O-S table of predicate ID p

	// directory is the paper's array of length 2×#properties holding the
	// distinct-key counts: entry 2·(p−1) for the S-O table of predicate p,
	// entry 2·(p−1)+1 for its O-S table.
	directory []uint32

	numTriples int
}

// SO returns the S-O replica for predicate ID p.
func (s *Store) SO(p uint32) *Table { return &s.so[p-1] }

// OS returns the O-S replica for predicate ID p.
func (s *Store) OS(p uint32) *Table { return &s.os[p-1] }

// NumPredicates reports the number of distinct predicates.
func (s *Store) NumPredicates() int { return len(s.so) }

// NumTriples reports the number of distinct triples loaded.
func (s *Store) NumTriples() int { return s.numTriples }

// Directory returns the paper's 2×#properties key-count directory. Entry
// 2·(p−1) holds the number of distinct subjects of predicate p, entry
// 2·(p−1)+1 its number of distinct objects.
func (s *Store) Directory() []uint32 { return s.directory }

// Bytes reports the memory footprint of the table payloads (excluding the
// dictionaries), the number the paper quotes as "22 GB excluding
// dictionary" for LUBM 10240.
func (s *Store) Bytes() int {
	total := 0
	for i := range s.so {
		for _, t := range []*Table{&s.so[i], &s.os[i]} {
			total += 4 * (len(t.Keys) + len(t.Offs) + len(t.Vals))
			if t.Index != nil {
				total += t.Index.Bytes()
			}
		}
	}
	return total
}

// Triples streams every stored triple (in S-O table order) to fn; it stops
// early if fn returns false. Intended for tests and export, not hot paths.
func (s *Store) Triples(fn func(sub, pred, obj uint32) bool) {
	for p := range s.so {
		t := &s.so[p]
		for i, k := range t.Keys {
			for _, o := range t.Run(i) {
				if !fn(k, uint32(p+1), o) {
					return
				}
			}
		}
	}
}

// BuildOptions configures Builder.Build.
type BuildOptions struct {
	// Calibrate runs the timing-based calibration (Algorithm 2) per table
	// to determine adaptive thresholds. When false, the paper-reported
	// default windows are used, which keeps builds deterministic.
	Calibrate bool
	// BinaryWindow and IndexWindow override the position windows used to
	// derive thresholds when Calibrate is false. Zero means the defaults
	// (search.DefaultBinaryWindow / search.DefaultIndexWindow).
	BinaryWindow int
	IndexWindow  int
	// BuildPosIndex builds the ID-to-Position index for every table.
	BuildPosIndex bool
	// PosIndexInterval is the anchor spacing; zero means
	// posindex.DefaultInterval.
	PosIndexInterval int
	// Parallelism bounds the number of predicates built concurrently
	// (sorting and CSR construction are per-predicate independent).
	// 0 means GOMAXPROCS; 1 forces the serial path.
	Parallelism int
}

// Builder accumulates triples and produces an immutable Store.
type Builder struct {
	resources  *dict.Dict
	predicates *dict.Dict
	// perPred[p-1] holds the encoded (subject, object) pairs of predicate
	// ID p, packed subject-high for cheap sorting.
	perPred [][]uint64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{resources: dict.New(), predicates: dict.New()}
}

// Add encodes and buffers one triple given as term strings, taking each
// dictionary's lock once.
func (b *Builder) Add(subject, predicate, object string) {
	var so [2]uint32
	b.resources.EncodeAll([]string{subject, object}, so[:])
	b.AddEncoded(so[0], b.predicates.Encode(predicate), so[1])
}

// AddTriple buffers one parsed triple.
func (b *Builder) AddTriple(t rdf.Triple) { b.Add(t.S, t.P, t.O) }

// AddEncoded buffers a triple already encoded with this builder's
// dictionaries. The predicate ID must have been returned by this builder.
func (b *Builder) AddEncoded(s, p, o uint32) {
	for int(p) > len(b.perPred) {
		b.perPred = append(b.perPred, nil)
	}
	b.perPred[p-1] = append(b.perPred[p-1], uint64(s)<<32|uint64(o))
}

// Resources exposes the resource dictionary for pre-encoding during load.
func (b *Builder) Resources() *dict.Dict { return b.resources }

// Predicates exposes the predicate dictionary.
func (b *Builder) Predicates() *dict.Dict { return b.predicates }

// Build sorts, deduplicates and freezes the buffered triples into a Store.
// The Builder must not be used afterwards.
func (b *Builder) Build(opts BuildOptions) *Store {
	st := &Store{
		Resources:  b.resources,
		Predicates: b.predicates,
		so:         make([]Table, len(b.perPred)),
		os:         make([]Table, len(b.perPred)),
	}
	maxID := b.resources.MaxID()

	// Per-predicate work (sorting, dedup, CSR, thresholds, indexes) is
	// independent; build predicates concurrently and only the simulated
	// base-address assignment stays serial (it is an ordered cursor).
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(b.perPred) {
		workers = len(b.perPred)
	}
	buildOne := func(p int) {
		pairs := b.perPred[p]
		sortPairs(pairs)
		pairs = dedupPairs(pairs)
		st.so[p] = buildCSR(pairs)
		// Reuse the buffer for the swapped pairs to build the O-S replica.
		st.os[p] = buildCSR(swapSort(pairs))
		b.perPred[p] = nil // release
		finishTable(&st.so[p], opts, maxID)
		finishTable(&st.os[p], opts, maxID)
	}
	if workers <= 1 {
		for p := range b.perPred {
			buildOne(p)
		}
	} else {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range work {
					buildOne(p)
				}
			}()
		}
		for p := range b.perPred {
			work <- p
		}
		close(work)
		wg.Wait()
	}
	st.finish()
	return st
}

// finish is the serial pass that ends every store construction: the triple
// count, the key-count directory and disjoint simulated base addresses for
// every array (tables shared with another store are struct copies, so that
// store's own addresses are untouched).
func (st *Store) finish() {
	var base uint64 = 1 << 20
	st.numTriples = 0
	st.directory = make([]uint32, 2*len(st.so))
	for p := range st.so {
		st.numTriples += st.so[p].NumTriples()
		st.directory[2*p] = uint32(len(st.so[p].Keys))
		st.directory[2*p+1] = uint32(len(st.os[p].Keys))
		for _, t := range []*Table{&st.so[p], &st.os[p]} {
			t.KeysBase = base
			base += uint64(len(t.Keys))*4 + 4096
			t.ValsBase = base
			base += uint64(len(t.Vals))*4 + 4096
			if t.Index != nil {
				t.IndexBases = posindex.Bases{Words: base, Anchors: base + uint64(t.Index.Bytes())}
				base += uint64(t.Index.Bytes())*2 + 4096
			}
		}
	}
}

// finishTable settles a built table's search windows (configured, default
// or calibrated), derives its thresholds and builds the optional index.
// Simulated base addresses are assigned afterwards in a serial pass so that
// the per-predicate work can run concurrently.
func finishTable(t *Table, opts BuildOptions, maxID uint32) {
	bw, iw := opts.BinaryWindow, opts.IndexWindow
	if bw == 0 {
		bw = search.DefaultBinaryWindow
	}
	if iw == 0 {
		iw = search.DefaultIndexWindow
	}
	if opts.BuildPosIndex {
		t.Index = posindex.Build(t.Keys, maxID, opts.PosIndexInterval)
	}
	if opts.Calibrate && len(t.Keys) > 1024 {
		bw = search.Calibrate(t.Keys, func(a []uint32, v uint32, cur *int) (int, bool) {
			return search.Binary(a, v, cur)
		}, search.CalibrateOptions{StartingWindowSize: bw})
		if t.Index != nil {
			iw = search.Calibrate(t.Keys, func(a []uint32, v uint32, cur *int) (int, bool) {
				return t.Index.Lookup(v)
			}, search.CalibrateOptions{StartingWindowSize: iw})
		}
	}
	t.BinaryWindow, t.IndexWindow = uint32(bw), uint32(iw)
	t.setThresholds()
}

// setThresholds derives the adaptive-search value thresholds from the
// table's windows over its current key range.
func (t *Table) setThresholds() {
	t.Threshold = search.ValueThreshold(t.Keys, int(t.BinaryWindow))
	t.IndexThreshold = search.ValueThreshold(t.Keys, int(t.IndexWindow))
}

func sortPairs(pairs []uint64) {
	sort.Slice(pairs, func(i, j int) bool { return pairs[i] < pairs[j] })
}

// swapSort repacks S-O pairs object-high, in place, and sorts them: the same
// pairs in the O-S replica's order.
func swapSort(pairs []uint64) []uint64 {
	for i, pr := range pairs {
		pairs[i] = pr<<32 | pr>>32
	}
	sortPairs(pairs)
	return pairs
}

func dedupPairs(pairs []uint64) []uint64 {
	out := pairs[:0]
	for i, p := range pairs {
		if i == 0 || p != pairs[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// buildCSR converts sorted (key<<32|val) pairs into a CSR table.
func buildCSR(pairs []uint64) Table {
	var t Table
	if len(pairs) == 0 {
		t.Offs = []uint32{0}
		return t
	}
	t.Vals = make([]uint32, len(pairs))
	var prevKey uint32
	for i, pr := range pairs {
		k := uint32(pr >> 32)
		v := uint32(pr)
		if i == 0 || k != prevKey {
			t.Keys = append(t.Keys, k)
			t.Offs = append(t.Offs, uint32(i))
			prevKey = k
		}
		t.Vals[i] = v
	}
	t.Offs = append(t.Offs, uint32(len(pairs)))
	return t
}

// LoadTriples builds a Store directly from parsed triples.
func LoadTriples(triples []rdf.Triple, opts BuildOptions) *Store {
	b := NewBuilder()
	for _, t := range triples {
		b.AddTriple(t)
	}
	return b.Build(opts)
}

// LoadNTriples streams an N-Triples document through a Builder, so the
// parsed triples are never held beside the dictionary-encoded ones.
func LoadNTriples(r io.Reader, opts BuildOptions) (*Store, error) {
	b := NewBuilder()
	rd := rdf.NewReader(r)
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return b.Build(opts), nil
		}
		if err != nil {
			return nil, err
		}
		b.AddTriple(t)
	}
}

// LoadFile loads a file by name: a ".snapshot" file with LoadSnapshot (opts
// do not apply: a snapshot keeps the tables it was saved with), anything
// else as N-Triples with LoadNTriples.
func LoadFile(path string, opts BuildOptions) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".snapshot") {
		return LoadSnapshot(f)
	}
	return LoadNTriples(f, opts)
}

// String summarizes the store for logs.
func (s *Store) String() string {
	return fmt.Sprintf("store{predicates: %d, triples: %d, resources: %d, bytes: %d}",
		s.NumPredicates(), s.NumTriples(), s.Resources.Len(), s.Bytes())
}
