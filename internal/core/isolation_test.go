package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"parj/internal/lubm"
)

// region is one address range a worker writes while the query runs.
type region struct {
	name   string
	lo, hi uintptr // half-open
}

func sliceRegion[T any](name string, s []T) region {
	if cap(s) == 0 {
		return region{name: name}
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return region{name, lo, lo + uintptr(cap(s))*unsafe.Sizeof(s[:1][0])}
}

// gap is the number of bytes between two regions (0 when they touch or
// overlap).
func gap(a, b region) uintptr {
	switch {
	case a.hi <= b.lo:
		return b.lo - a.hi
	case b.hi <= a.lo:
		return a.lo - b.hi
	}
	return 0
}

// workerRegions lists everything worker id writes in the hot loop: the live
// part of its struct (which must contain its sink and in-flight slot)
// and every small slice carved for it.
func workerRegions(t *testing.T, w *worker, id int) []region {
	t.Helper()
	base := uintptr(unsafe.Pointer(w))
	live := region{"worker struct", base + unsafe.Offsetof(w.st), base + unsafe.Offsetof(w.stats) + unsafe.Sizeof(w.stats)}
	inside := func(name string, p unsafe.Pointer, size uintptr) {
		if lo := uintptr(p); lo < live.lo || lo+size > live.hi {
			t.Errorf("worker %d: %s lives outside the worker's guarded struct", id, name)
		}
	}
	if w.stream != nil {
		inside("stream sink", unsafe.Pointer(w.stream), unsafe.Sizeof(*w.stream))
	}
	inside("inflight slot", unsafe.Pointer(&w.inflight), unsafe.Sizeof(w.inflight))
	rs := []region{
		live,
		sliceRegion("binding", w.binding),
		sliceRegion("cursors", w.cursors),
		sliceRegion("wcoj bufs", w.wcoj.bufs),
		sliceRegion("wcoj arrs", w.wcoj.arrs),
		sliceRegion("wcoj curs", w.wcoj.curs),
		sliceRegion("wcoj runs", w.wcoj.runs),
		sliceRegion("wcoj bind curs", w.wcoj.bcur),
		sliceRegion("sink batch", w.sinkMem.batch),
	}
	out := rs[:0]
	for _, r := range rs {
		if r.hi > r.lo {
			out = append(out, r)
		}
	}
	return out
}

// TestGuardsOnBothSides pins the guards themselves, one by one: the pads at
// the head and tail of worker and both guards of an
// isolated slice. TestWorkersShareNoCacheLine alone cannot tell a region
// guarded on both sides from one that happens to sit behind its neighbour's
// guard.
func TestGuardsOnBothSides(t *testing.T) {
	var w worker
	if off := unsafe.Offsetof(w.st); off < guard {
		t.Errorf("worker: first field at offset %d, want a head pad of %d bytes", off, guard)
	}
	if tail := unsafe.Sizeof(w) - (unsafe.Offsetof(w.stats) + unsafe.Sizeof(w.stats)); tail < guard {
		t.Errorf("worker: %d bytes after the last field, want a tail pad of %d", tail, guard)
	}
	// 4 words between two 16-word guards fill the allocator's 288-byte size
	// class exactly, so back-to-back allocations put two live parts exactly
	// two guards apart — and closer than that as soon as either guard goes.
	regs := make([]region, 64)
	for i := range regs {
		regs[i] = sliceRegion(fmt.Sprint("isolated #", i), isolated[uint64](4))
	}
	for i := range regs {
		for j := i + 1; j < len(regs); j++ {
			if g := gap(regs[i], regs[j]); g < 2*guard {
				t.Fatalf("%s and %s are %d bytes apart, want >= %d (a guard on each side of each)",
					regs[i].name, regs[j].name, g, 2*guard)
			}
		}
	}
}

// TestWorkersShareNoCacheLine is the structural half of "workers share
// nothing": for pipeline, WCOJ, governed and streaming executions at several
// worker counts it runs the real launch path, then collects the address range
// of every region each worker wrote and fails if regions of two different
// workers are closer than guard bytes — close enough to share a cache line
// or the 128-byte pair the adjacent-line prefetcher moves.
func TestWorkersShareNoCacheLine(t *testing.T) {
	skew, cyc := skewScanFixture(t), denseCyclicFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cases := []struct {
		name   string
		f      *fixture
		src    string
		opts   Options
		stream bool
	}{
		{"pipeline", skew, skewJoinQuery, Options{Silent: true, Join: JoinPipeline}, false},
		{"wcoj", cyc, wcojQueries[1], Options{Silent: true, Join: JoinWCOJ}, false},
		{"governed", skew, skewJoinQuery, Options{Context: ctx, MaxResultRows: 1 << 40, MemoryBudget: 1 << 40}, false},
		{"stream", skew, skewJoinQuery, Options{Join: JoinPipeline}, true},
		{"stream-wcoj-governed", cyc, wcojQueries[1], Options{Context: ctx, Join: JoinWCOJ}, true},
	}
	for _, c := range cases {
		plan := c.f.planFor(t, c.src)
		for _, n := range []int{2, 3, 8} {
			opts := c.opts
			opts.Threads, opts.MorselSize = n, 4
			x, err := prepare(c.f.st, plan, &opts, 0, -1)
			if err != nil {
				t.Fatalf("%s w=%d: %v", c.name, n, err)
			}
			if x.nworkers != n {
				t.Fatalf("%s w=%d: execution resolved to %d workers", c.name, n, x.nworkers)
			}
			var initSink func(*streamSink)
			var rowCh chan [][]uint32
			if c.stream {
				// Small batches, so the re-allocation in flush is measured too.
				rowCh = make(chan [][]uint32, 2*n)
				go func() {
					for range rowCh {
					}
				}()
				initSink = func(k *streamSink) { k.init(rowCh, make(chan struct{}), 8) }
			}
			// As constructed, and again after a real run has regrown and
			// re-allocated whatever it does.
			fresh := make([]*worker, n)
			for id := range fresh {
				fresh[id] = x.newWorker(initSink)
			}
			s := x.launch(initSink)
			s.wg.Wait()
			if rowCh != nil {
				close(rowCh)
			}
			x.gov.ReleasePool()
			if err := x.gov.Err(); err != nil {
				t.Fatalf("%s w=%d: %v", c.name, n, err)
			}
			for _, workers := range [][]*worker{fresh, s.workers} {
				regs := make([][]region, n)
				for id, w := range workers {
					regs[id] = workerRegions(t, w, id)
				}
				for a := 0; a < n; a++ {
					for b := a + 1; b < n; b++ {
						for _, ra := range regs[a] {
							for _, rb := range regs[b] {
								if g := gap(ra, rb); g < guard {
									t.Errorf("%s w=%d: worker %d's %s [%#x,%#x) and worker %d's %s [%#x,%#x) are %d bytes apart, want >= %d",
										c.name, n, a, ra.name, ra.lo, ra.hi, b, rb.name, rb.lo, rb.hi, g, guard)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTwoWorkersNotSlowerThanOne is the behavioural half: on a host with two
// cores, two workers must beat one by a clear margin on join-heavy LUBM
// queries — median wall time at Threads=2 at most 0.85x Threads=1. With
// per-worker state packed into shared cache lines the median two-thread run
// was *slower* than one thread; isolated it is 1.6-2x faster, so the bar sits
// far from either side's noise. The median rather than the best of N: how
// badly packed workers collide depends on where each execution's allocations
// happen to land, and a best-of-N picks the lucky layouts. A host too busy to
// run two spinning goroutines in parallel (other packages' tests share the
// cores under `go test ./...`) cannot tell the two cases apart, so every round
// also times that control and the test only blames the engine when the
// control scales.
func TestTwoWorkersNotSlowerThanOne(t *testing.T) {
	if testing.Short() || runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two CPUs and a full (non -short) run")
	}
	const bar, hostBar, rounds = 0.85, 0.75, 41
	// medians runs fns round-robin and returns each one's median wall time.
	medians := func(fns ...func()) []time.Duration {
		samples := make([][]time.Duration, len(fns))
		for r := 0; r < rounds; r++ {
			for i, fn := range fns {
				t0 := time.Now()
				fn()
				samples[i] = append(samples[i], time.Since(t0))
			}
		}
		out := make([]time.Duration, len(fns))
		for i, s := range samples {
			sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
			out[i] = s[rounds/2]
		}
		return out
	}
	// Control: the same private spinning on one goroutine and split over two.
	var acc [2]struct {
		n uint64
		_ [guard]byte
	}
	spin := func(i int) {
		for k := 0; k < 300_000; k++ {
			acc[i].n += uint64(k) * 2654435761
		}
	}
	spinOne := func() { spin(0); spin(0) }
	spinTwo := func() {
		done := make(chan struct{})
		go func() { spin(1); close(done) }()
		spin(0)
		<-done
	}
	f := newFixture(t, lubm.Triples(12, lubm.Config{}))
	// A fresh process does not always get its second core at once (some
	// sandboxes take 3-6 s to spread its threads); spin until the control
	// scales.
	for until := time.Now().Add(6 * time.Second); time.Now().Before(until); {
		if m := medians(spinOne, spinTwo); float64(m[1]) <= hostBar*float64(m[0]) {
			break
		}
	}
	for _, q := range lubm.Queries() {
		if q.Name != "L2" && q.Name != "L10" {
			continue
		}
		plan := f.planFor(t, q.SPARQL)
		exec := func(threads int) func() {
			return func() {
				if _, err := Execute(f.st, plan, Options{Threads: threads, Silent: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		m := medians(exec(1), exec(2), spinOne, spinTwo)
		ratio, host := float64(m[1])/float64(m[0]), float64(m[3])/float64(m[2])
		t.Logf("%s: T=1 %v, T=2 %v (x%.2f); control %v, %v (x%.2f)", q.Name, m[0], m[1], ratio, m[2], m[3], host)
		switch {
		case ratio <= bar:
		case host > hostBar:
			t.Skipf("%s: two workers took x%.2f of one, but two spinning goroutines only reach x%.2f on this host right now", q.Name, ratio, host)
		default:
			t.Errorf("%s: two workers took %v, one took %v; want T=2 <= %.2f x T=1", q.Name, m[1], m[0], bar)
		}
	}
}
