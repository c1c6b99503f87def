package search

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// sortedArr builds a sorted array of n distinct values with average gap g.
func sortedArr(rng *rand.Rand, n, g int) []uint32 {
	arr := make([]uint32, n)
	v := uint32(1)
	for i := range arr {
		v += uint32(1 + rng.Intn(2*g))
		arr[i] = v
	}
	return arr
}

func refSearch(arr []uint32, value uint32) (int, bool) {
	i := sort.Search(len(arr), func(i int) bool { return arr[i] >= value })
	return i, i < len(arr) && arr[i] == value
}

func TestBinaryFindsAllElements(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arr := sortedArr(rng, 1000, 5)
	for i, v := range arr {
		cur := rng.Intn(len(arr))
		pos, ok := Binary(arr, v, &cur)
		if !ok || pos != i {
			t.Fatalf("Binary(%d) = (%d,%v), want (%d,true)", v, pos, ok, i)
		}
		if cur != pos {
			t.Fatalf("cursor = %d, want %d", cur, pos)
		}
	}
}

func TestBinaryMisses(t *testing.T) {
	arr := []uint32{10, 20, 30}
	cur := 0
	if _, ok := Binary(arr, 15, &cur); ok {
		t.Error("Binary(15) found, want miss")
	}
	if _, ok := Binary(arr, 5, &cur); ok {
		t.Error("Binary(5) found, want miss")
	}
	if _, ok := Binary(arr, 35, &cur); ok {
		t.Error("Binary(35) found, want miss")
	}
}

func TestSequentialForwardAndBackward(t *testing.T) {
	arr := []uint32{2, 4, 6, 8, 10, 12}
	cur := 0
	pos, ok := Sequential(arr, 8, &cur)
	if !ok || pos != 3 {
		t.Fatalf("forward: (%d,%v), want (3,true)", pos, ok)
	}
	pos, ok = Sequential(arr, 4, &cur) // backward from 3
	if !ok || pos != 1 {
		t.Fatalf("backward: (%d,%v), want (1,true)", pos, ok)
	}
	if _, ok = Sequential(arr, 5, &cur); ok {
		t.Error("Sequential(5) found, want miss")
	}
	if _, ok = Sequential(arr, 100, &cur); ok {
		t.Error("Sequential(100) found, want miss")
	}
	if cur != len(arr)-1 {
		t.Errorf("cursor after overrun = %d, want %d", cur, len(arr)-1)
	}
	if _, ok = Sequential(arr, 1, &cur); ok {
		t.Error("Sequential(1) found, want miss")
	}
	if cur != 0 {
		t.Errorf("cursor after underrun = %d, want 0", cur)
	}
}

func TestSequentialEmptyAndClampedCursor(t *testing.T) {
	var empty []uint32
	cur := 5
	if _, ok := Sequential(empty, 1, &cur); ok {
		t.Error("Sequential on empty found something")
	}
	arr := []uint32{1, 2, 3}
	cur = 99 // out of range: must clamp, not panic
	pos, ok := Sequential(arr, 2, &cur)
	if !ok || pos != 1 {
		t.Errorf("clamped Sequential = (%d,%v), want (1,true)", pos, ok)
	}
	cur = -3
	pos, ok = Sequential(arr, 3, &cur)
	if !ok || pos != 2 {
		t.Errorf("negative-cursor Sequential = (%d,%v), want (2,true)", pos, ok)
	}
}

func TestAdaptiveMatchesBinarySemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arr := sortedArr(rng, 5000, 3)
	threshold := ValueThreshold(arr, 200)
	var stats Stats
	cur := 0
	for trial := 0; trial < 20000; trial++ {
		v := arr[0] + uint32(rng.Intn(int(arr[len(arr)-1]-arr[0])+10))
		wantPos, wantOK := refSearch(arr, v)
		pos, ok := Adaptive(arr, v, &cur, threshold, &stats)
		if ok != wantOK {
			t.Fatalf("Adaptive(%d) found=%v, want %v", v, ok, wantOK)
		}
		if ok && pos != wantPos {
			t.Fatalf("Adaptive(%d) pos=%d, want %d", v, pos, wantPos)
		}
	}
	if stats.Sequential == 0 || stats.Binary == 0 {
		t.Errorf("expected a mix of strategies, got %+v", stats)
	}
}

func TestAdaptiveChoosesSequentialForNearKeys(t *testing.T) {
	arr := make([]uint32, 1000)
	for i := range arr {
		arr[i] = uint32(i * 10)
	}
	threshold := ValueThreshold(arr, 200)
	var stats Stats
	cur := 0
	// Walk keys in order with tiny gaps: every probe should be sequential.
	for i := 0; i < len(arr); i++ {
		Adaptive(arr, arr[i], &cur, threshold, &stats)
	}
	if stats.Binary != 0 {
		t.Errorf("near-key walk used %d binary searches, want 0", stats.Binary)
	}
	// A far jump must use binary search.
	cur = 0
	Adaptive(arr, arr[len(arr)-1], &cur, threshold, &stats)
	if stats.Binary != 1 {
		t.Errorf("far jump: Binary = %d, want 1", stats.Binary)
	}
}

func TestAdaptiveEmptyArray(t *testing.T) {
	cur := 0
	if _, ok := Adaptive(nil, 5, &cur, 100, nil); ok {
		t.Error("Adaptive(nil) found something")
	}
}

func TestValueThreshold(t *testing.T) {
	arr := []uint32{0, 1000000}
	if got := ValueThreshold(arr, 0); got != 0 {
		t.Errorf("window 0: got %d, want 0", got)
	}
	arr = make([]uint32, 100)
	for i := range arr {
		arr[i] = uint32(i * 7)
	}
	got := ValueThreshold(arr, 10)
	if got < 60 || got > 80 {
		t.Errorf("ValueThreshold = %d, want ~70", got)
	}
	if got := ValueThreshold([]uint32{5}, 10); got < 1 {
		t.Errorf("singleton threshold = %d, want >= 1", got)
	}
}

// TestWindowOfInvertsValueThreshold: every window round-trips to a window
// with the same threshold, and a threshold no window can reach — past the
// 1<<31 ceiling, or over an array with no spread — still returns.
func TestWindowOfInvertsValueThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arrays := [][]uint32{nil, {5}, {1, 2, 3}, sortedArr(rng, 1000, 1), sortedArr(rng, 1000, 40)}
	for _, arr := range arrays {
		for _, w := range []int{0, 1, 2, 7, DefaultIndexWindow, DefaultBinaryWindow, 5000} {
			th := ValueThreshold(arr, w)
			for _, preferred := range []int{w, DefaultBinaryWindow} {
				if got := ValueThreshold(arr, WindowOf(arr, th, preferred)); got != th {
					t.Errorf("len %d window %d preferred %d: round-trip threshold %d, want %d", len(arr), w, preferred, got, th)
				}
			}
		}
	}
	for _, arr := range [][]uint32{{1, 2, 3}, {7, 7, 7, 7}, sortedArr(rng, 100, 1000)} {
		for _, th := range []uint32{1<<31 + 1, 1<<31 | 200, ^uint32(0)} {
			if w := WindowOf(arr, th, DefaultBinaryWindow); w < 0 {
				t.Errorf("unreachable threshold %d: window %d", th, w)
			}
		}
	}
}

func TestStatsAddTotal(t *testing.T) {
	a := Stats{Sequential: 1, Binary: 2, Index: 3}
	b := Stats{Sequential: 10, Binary: 20, Index: 30}
	a.Add(b)
	if a.Sequential != 11 || a.Binary != 22 || a.Index != 33 {
		t.Errorf("Add: %+v", a)
	}
	if a.Total() != 66 {
		t.Errorf("Total = %d, want 66", a.Total())
	}
}

func TestCalibrateTerminatesAndIsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arr := sortedArr(rng, 200000, 4)
	locate := func(a []uint32, v uint32, cur *int) (int, bool) { return Binary(a, v, cur) }
	w := Calibrate(arr, locate, CalibrateOptions{NoOfSearches: 500, StartingWindowSize: 64})
	if w < 1 || w > len(arr) {
		t.Fatalf("Calibrate = %d, out of range [1,%d]", w, len(arr))
	}
}

func TestCalibrateTinyArray(t *testing.T) {
	w := Calibrate([]uint32{1, 2}, func(a []uint32, v uint32, cur *int) (int, bool) {
		return Binary(a, v, cur)
	}, CalibrateOptions{})
	if w != DefaultBinaryWindow {
		t.Errorf("tiny-array Calibrate = %d, want default %d", w, DefaultBinaryWindow)
	}
}

// Property: for any sorted array, any cursor position and any probe value,
// Adaptive agrees with the reference search on membership and position.
func TestQuickAdaptiveEquivalence(t *testing.T) {
	f := func(raw []uint32, probe uint32, curSeed uint16, window uint8) bool {
		if len(raw) == 0 {
			return true
		}
		arr := append([]uint32(nil), raw...)
		sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
		// Deduplicate: tables store distinct keys.
		arr = dedup(arr)
		cur := int(curSeed) % len(arr)
		threshold := ValueThreshold(arr, int(window))
		wantPos, wantOK := refSearch(arr, probe)
		pos, ok := Adaptive(arr, probe, &cur, threshold, nil)
		if ok != wantOK {
			return false
		}
		if ok && pos != wantPos {
			return false
		}
		if cur < 0 || cur >= len(arr) {
			return false // cursor must stay in range
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the cursor invariant holds across chained probes — after any
// sequence of adaptive searches, membership answers still match reference.
func TestQuickChainedProbes(t *testing.T) {
	f := func(raw []uint32, probes []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		arr := append([]uint32(nil), raw...)
		sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
		arr = dedup(arr)
		threshold := ValueThreshold(arr, 50)
		cur := 0
		for _, p := range probes {
			wantPos, wantOK := refSearch(arr, p)
			pos, ok := Adaptive(arr, p, &cur, threshold, nil)
			if ok != wantOK || (ok && pos != wantPos) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func dedup(sorted []uint32) []uint32 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func BenchmarkBinary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arr := sortedArr(rng, 1<<20, 3)
	keys := make([]uint32, 1024)
	for i := range keys {
		keys[i] = arr[rng.Intn(len(arr))]
	}
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Binary(arr, keys[i&1023], &cur)
	}
}

func BenchmarkSequentialNearKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arr := sortedArr(rng, 1<<20, 3)
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sequential(arr, arr[i%len(arr)], &cur)
	}
}

func BenchmarkAdaptiveNearKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arr := sortedArr(rng, 1<<20, 3)
	threshold := ValueThreshold(arr, DefaultBinaryWindow)
	cur := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Adaptive(arr, arr[i%len(arr)], &cur, threshold, nil)
	}
}
