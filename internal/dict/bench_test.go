package dict

import (
	"fmt"
	"math/rand"
	"testing"
)

var (
	sinkID   uint32
	sinkTerm string
	sinkRows [][]string
)

// BenchmarkDict prices a 1 M-entry dictionary: a Lookup and an Encode hit, a
// decode through a view, a result of 64 k rows × 3 columns decoded as
// Result.StringRows does (reporting the dictionary's retained bytes per
// term beside it), and a batch of 64 novel terms (the write path's churn
// batch). Hits look up copies of the stored strings, as a query or a
// write does: probing with the very string a dictionary stored would let
// the comparison short-circuit on pointer equality.
func BenchmarkDict(b *testing.B) {
	const n = 1 << 20
	term := func(i int) string {
		return fmt.Sprintf("<http://lubm.repro/univ%d/dept%d/student%d>", i%1000, i/1000%20, i)
	}
	build := func() *Dict {
		d := New()
		for i := 0; i < n; i++ {
			d.Encode(term(i))
		}
		return d
	}
	d := build()
	probes := make([]string, n)
	for i := range probes {
		probes[i] = term(i)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	b.Run("LookupHit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkID = d.Lookup(probes[order[i%n]])
		}
	})
	b.Run("EncodeHit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkID = d.Encode(probes[order[i%n]])
		}
	})
	b.Run("ViewDecode", func(b *testing.B) {
		v := d.SnapshotStrings()
		for i := 0; i < b.N; i++ {
			sinkTerm = v.At(uint32(order[i%n] + 1))
		}
	})
	b.Run("BatchDecode", func(b *testing.B) {
		rows := make([][]uint32, 64<<10)
		for i := range rows {
			rows[i] = []uint32{uint32(order[3*i%n] + 1), uint32(order[(3*i+1)%n] + 1), uint32(order[(3*i+2)%n] + 1)}
		}
		dicts := []*Dict{d, d, d}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkRows = DecodeRows(dicts, rows)
		}
		b.ReportMetric(float64(footprint(d))/float64(d.Len()), "B/term")
	})
	b.Run("Batch64Novel", func(b *testing.B) {
		ids := make([]uint32, 64)
		var pool []string
		for i := 0; i < b.N; i++ {
			if len(pool) == 0 {
				b.StopTimer()
				if d.Len() >= 2*n { // every batch meets 1–2 M entries
					d = build()
				}
				pool = make([]string, 64<<10)
				for k := range pool {
					pool[k] = term(d.Len() + k)
				}
				b.StartTimer()
			}
			d.EncodeAll(pool[:64], ids)
			pool = pool[64:]
		}
	})
}
