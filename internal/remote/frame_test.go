package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parj/internal/core"
	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// frameRows builds n rows of cols IDs spanning 1…2³²−1: ascending per
// column (what a scan of a sorted table yields) or uniformly random.
func frameRows(rng *rand.Rand, n, cols int, ascending bool) [][]uint32 {
	rows := make([][]uint32, n)
	step := uint32(math.MaxUint32 / uint32(n+1))
	for r := range rows {
		rows[r] = make([]uint32, cols)
		for c := range rows[r] {
			if ascending {
				rows[r][c] = 1 + uint32(r)*step + uint32(rng.Intn(int(step)))
			} else {
				rows[r][c] = 1 + uint32(rng.Int63n(math.MaxUint32))
			}
		}
	}
	if n > 0 && cols > 0 {
		rows[0][0], rows[n-1][cols-1] = 1, math.MaxUint32
	}
	return rows
}

// seal appends the checksum a frame body needs to get past the CRC check,
// so the tests below reach the checks behind it.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli()))
}

// TestFrameRoundTrip also covers rows of no columns (cols 0, n > 0): their
// block is empty, and the gather slices n rows from the response's Count.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 10000} {
		for _, cols := range []int{0, 1, 3} {
			for _, ascending := range []bool{true, false} {
				rows := frameRows(rng, n, cols, ascending)
				frame := encodeFrame(rows, cols)
				block, width, err := decodeFrame(frame, int64(n))
				if err != nil {
					t.Fatalf("%d rows × %d cols (ascending %v): %v", n, cols, ascending, err)
				}
				if n > 0 && width != cols {
					t.Fatalf("%d rows × %d cols: decoded width %d", n, cols, width)
				}
				if want := slices.Concat(rows...); block == nil || !slices.Equal(block, want) {
					t.Fatalf("%d rows × %d cols (ascending %v): block of %d values is not the %d rows concatenated", n, cols, ascending, len(block), n)
				}
				got := core.AppendRows(nil, block, cols, n)
				if len(got) != n {
					t.Fatalf("%d rows × %d cols: sliced %d rows", n, cols, len(got))
				}
				for r := range rows {
					if len(got[r]) != cols || !slices.Equal(got[r], rows[r]) {
						t.Fatalf("%d rows × %d cols (ascending %v): row %d = %v, want %v", n, cols, ascending, r, got[r], rows[r])
					}
				}
				if ascending && cols > 0 && n == 10000 && len(frame) > 4*n*cols {
					t.Errorf("ascending %d × %d frame is %d bytes, no smaller than raw uint32s", n, cols, len(frame))
				}
			}
		}
	}
}

// TestFrameDecodedRowsAreDisjoint: rows handed out as slices of one block —
// a decoded frame as the coordinator's gather slices it, and the worker
// chunks core.ExecuteShardRange slices — share no element, and writing or
// appending to one cannot run into the next.
func TestFrameDecodedRowsAreDisjoint(t *testing.T) {
	disjoint := func(t *testing.T, got [][]uint32) {
		t.Helper()
		if len(got) < 3 {
			t.Fatalf("%d rows, need three", len(got))
		}
		want := [][]uint32{slices.Clone(got[0]), slices.Clone(got[2])}
		for i := range got[1] {
			got[1][i] = 99
		}
		_ = append(got[1], 77)
		if !slices.Equal(got[0], want[0]) || !slices.Equal(got[2], want[1]) {
			t.Fatalf("writing row 1 changed its neighbours: %v", got[:3])
		}
	}
	t.Run("gather", func(t *testing.T) {
		rows := [][]uint32{{1, 2}, {3, 4}, {5, 6}}
		block, width, err := decodeFrame(encodeFrame(rows, 2), 3)
		if err != nil {
			t.Fatal(err)
		}
		disjoint(t, core.AppendRows(nil, block, width, 3))
	})
	t.Run("ExecuteShardRange", func(t *testing.T) {
		st := testStore()
		q, err := sparql.Parse(`SELECT ?x ?y WHERE { ?x <p> ?y }`)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, st, stats.New(st))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.ExecuteShardRange(st, plan, core.Options{Threads: 1}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		disjoint(t, res.Rows)
	})
}

// decodeAllocs is how many bytes one decodeFrame call allocates. Other
// goroutines (the fuzz worker's own plumbing) allocate on the same heap now
// and then, so a reading above limit is taken again, and the smallest of
// three counts.
func decodeAllocs(frame []byte, want int64, limit uint64) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3 && least > limit; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		decodeFrame(frame, want)
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

func TestFrameRejectsCorruption(t *testing.T) {
	rows := frameRows(rand.New(rand.NewSource(2)), 7, 3, true)
	good := encodeFrame(rows, 3)
	body := good[:len(good)-crc32.Size]
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  int64
	}{
		{"empty", nil, 0},
		{"short", good[:frameOverhead-1], 7},
		{"truncated", good[:len(good)-5], 7},
		{"bit flip in a value", func() []byte { f := bytes.Clone(good); f[len(f)/2] ^= 0x04; return f }(), 7},
		{"bit flip in the checksum", func() []byte { f := bytes.Clone(good); f[len(f)-1] ^= 0x80; return f }(), 7},
		{"wrong version", seal(append([]byte{frameVersion + 1}, body[1:]...)), 7},
		{"trailing byte", seal(append(bytes.Clone(body), 0)), 7},
		{"missing last value", seal(body[:len(body)-1]), 7},
		{"row count disagrees with the response", good, 8},
		{"negative count", good, -1},
		{"ID past uint32", seal(append([]byte{frameVersion}, uv(1, 1, uint64(math.MaxUint32+1)<<1)...)), 1},
		{"negative ID", seal(append([]byte{frameVersion}, uv(1, 1, 1)...)), 1},
		{"delta overflows int64", seal(append([]byte{frameVersion}, uv(1, 2, 2, math.MaxUint64-1)...)), 2},
		{"length bomb", seal(append([]byte{frameVersion}, uv(1<<31, 1<<31)...)), 1 << 31},
		{"length bomb, product overflows", seal(append([]byte{frameVersion}, uv(1<<33, 1<<33)...)), 1 << 33},
		{"zero columns, header rows past the count", seal(append([]byte{frameVersion}, uv(0, 1<<40)...)), 1},
		{"unterminated column count", seal([]byte{frameVersion, 0x80, 0x80}), 0},
	}
	for _, c := range cases {
		got, _, err := decodeFrame(c.frame, c.want)
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: decoded %d values, err %v; want ErrCorruptFrame", c.name, len(got), err)
		}
		if grew := decodeAllocs(c.frame, c.want, 4096); grew > 4096 {
			t.Errorf("%s: rejecting a %d-byte frame allocated %d bytes", c.name, len(c.frame), grew)
		}
	}
	// A frame of no rows may name any width: there are no values to size.
	if got, _, err := decodeFrame(seal(append([]byte{frameVersion}, uv(1<<40, 0)...)), 0); err != nil || len(got) != 0 {
		t.Errorf("empty wide frame: %d values, err %v", len(got), err)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder, as they are
// and resealed with a valid checksum so mutations reach the parser behind
// the CRC. The decoder must never panic, never allocate more than a small
// multiple of its input, classify every rejection as ErrCorruptFrame, and
// whatever it accepts must survive an encode/decode round trip unchanged,
// its block equal to the encoded rows concatenated.
func FuzzDecodeFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, seed := range []struct {
		rows [][]uint32
		cols int
	}{
		{nil, 0},
		{[][]uint32{{42}}, 1},
		{[][]uint32{{}}, 0},
		{frameRows(rng, 1000, 3, true), 3},
		{make([][]uint32, 9), 0},
	} {
		frame := encodeFrame(seed.rows, seed.cols)
		f.Add(frame, uint16(len(seed.rows)))
		flipped := bytes.Clone(frame)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped, uint16(len(seed.rows)))
	}
	f.Add([]byte{}, uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		for _, frame := range [][]byte{data, seal(data)} {
			block, cols, err := decodeFrame(frame, int64(count))
			if limit := uint64(4096 + 32*(len(frame)+int(count))); decodeAllocs(frame, int64(count), limit) > limit {
				t.Fatalf("decoding %d bytes (count %d) allocated more than %d bytes", len(frame), count, limit)
			}
			if err != nil {
				if !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("error %v does not wrap ErrCorruptFrame", err)
				}
				continue
			}
			if len(block) != int(count)*cols {
				t.Fatalf("accepted %d values for %d rows of %d columns", len(block), count, cols)
			}
			rows := core.AppendRows(nil, block, cols, int(count))
			if len(rows) != int(count) {
				t.Fatalf("sliced %d rows for a response counting %d", len(rows), count)
			}
			again, againCols, err := decodeFrame(encodeFrame(rows, cols), int64(count))
			if err != nil || (count > 0 && againCols != cols) {
				t.Fatalf("re-encoding an accepted frame: %d columns, err %v", againCols, err)
			}
			if !slices.Equal(again, block) || !slices.Equal(again, slices.Concat(rows...)) {
				t.Fatalf("block changed across a round trip: %v → %v", block, again)
			}
		}
	})
}

// lubmShard evaluates one shard of two of a LUBM query on a replica built
// from scratch, the way an endpoint node does.
func lubmShard(tb testing.TB, scale int, name string) *core.Result {
	tb.Helper()
	st := store.LoadTriples(lubm.Triples(scale, lubm.Config{}), store.BuildOptions{})
	for _, nq := range lubm.Queries() {
		if nq.Name != name {
			continue
		}
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			tb.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, st, stats.New(st))
		if err != nil {
			tb.Fatal(err)
		}
		res, err := core.ExecuteShardRange(st, plan, core.Options{Threads: 2}, 0, 1)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	tb.Fatalf("no LUBM query %s", name)
	return nil
}

// TestReplicasEmitIdenticalFrames pins the package doc's claim: two
// replicas built independently from the same input answer the same shard
// range with the same bytes, which is what makes a retry on the other
// replica safe.
func TestReplicasEmitIdenticalFrames(t *testing.T) {
	for _, name := range []string{"L2", "L7"} {
		a, b := lubmShard(t, 1, name), lubmShard(t, 1, name)
		if a.Count == 0 {
			t.Fatalf("%s: empty shard, nothing pinned", name)
		}
		fa, fb := encodeFrame(a.Rows, len(a.Vars)), encodeFrame(b.Rows, len(b.Vars))
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s: replicas emitted different frames (%d vs %d bytes)", name, len(fa), len(fb))
		}
	}
}

// BenchmarkFrame prices the row frame against the encoding it replaced,
// encoding/json of [][]uint32 (computed here only; the product no longer
// has it), on the results BenchmarkExecRows materializes: LUBM 16, one
// shard of two. bytes/row counts the base64 the JSON envelope adds.
func BenchmarkFrame(b *testing.B) {
	for _, name := range []string{"L2", "L7", "L10"} {
		res := lubmShard(b, 16, name)
		rows, cols := res.Rows, len(res.Vars)
		perRow := func(b *testing.B, wire int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
			b.ReportMetric(float64(wire)/float64(len(rows)), "bytes/row")
		}
		b.Run(name+"/frame", func(b *testing.B) {
			b.ReportAllocs()
			var wire []byte
			for i := 0; i < b.N; i++ {
				wire, _ = json.Marshal(encodeFrame(rows, cols))
				var frame []byte
				if err := json.Unmarshal(wire, &frame); err != nil {
					b.Fatal(err)
				}
				if _, _, err := decodeFrame(frame, int64(len(rows))); err != nil {
					b.Fatal(err)
				}
			}
			perRow(b, len(wire))
		})
		b.Run(name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			var wire []byte
			for i := 0; i < b.N; i++ {
				wire, _ = json.Marshal(rows)
				var got [][]uint32
				if err := json.Unmarshal(wire, &got); err != nil {
					b.Fatal(err)
				}
			}
			perRow(b, len(wire))
		})
	}
}
