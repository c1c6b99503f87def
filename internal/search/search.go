// Package search implements the probe primitives of PARJ's adaptive join
// (paper §4.1): cursor-resuming sequential search, full-array binary search,
// and the per-probe adaptive switch between them (Algorithm 1), plus the
// timing-based calibration that determines the switch threshold
// (Algorithm 2).
//
// All searches operate on sorted []uint32 arrays (the distinct-subject array
// of an S-O table or the distinct-object array of an O-S table) and maintain
// a cursor: the index of the last accessed element. The cursor is updated on
// both successful and unsuccessful searches, so a later sequential search
// resumes where the previous probe ended — this is what makes a run of
// nearly-sorted probe keys behave like a merge join.
package search

import (
	"math"
	"sort"
)

// Stats counts the probe-strategy decisions taken by the adaptive search.
// The engine aggregates one Stats per worker; Table 6 of the paper reports
// these counts.
type Stats struct {
	Sequential uint64 // probes answered by sequential search
	Binary     uint64 // probes answered by binary search
	Index      uint64 // probes answered by ID-to-Position index lookup
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Sequential += other.Sequential
	s.Binary += other.Binary
	s.Index += other.Index
}

// Total reports the total number of probes.
func (s *Stats) Total() uint64 { return s.Sequential + s.Binary + s.Index }

// Sequential scans arr for value starting from the cursor position, moving
// forward or backward as needed. It returns the position of value and true,
// or the position of the nearest element examined and false. The cursor is
// set to the last accessed element in either case.
func Sequential(arr []uint32, value uint32, cur *int) (int, bool) {
	i := *cur
	if i < 0 {
		i = 0
	}
	if i >= len(arr) {
		i = len(arr) - 1
	}
	if len(arr) == 0 {
		return 0, false
	}
	switch {
	case arr[i] < value:
		for i+1 < len(arr) && arr[i+1] <= value {
			i++
		}
	case arr[i] > value:
		for i > 0 && arr[i] > value {
			i--
		}
		// We may have stepped one past a smaller element; that is fine:
		// arr[i] <= value or i == 0.
	}
	*cur = i
	return i, arr[i] == value
}

// Binary performs a binary search over the whole array. Per the paper, the
// search deliberately spans the full array rather than using the cursor to
// narrow the range: the positions probed first are shared across searches
// and therefore stay cached. The cursor is set to the final probe position.
func Binary(arr []uint32, value uint32, cur *int) (int, bool) {
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] < value {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if pos == len(arr) {
		pos = len(arr) - 1
	}
	if pos < 0 {
		*cur = 0
		return 0, false
	}
	*cur = pos
	return pos, arr[pos] == value
}

// Adaptive implements Algorithm 1: it compares the arithmetic distance
// between the element under the cursor and the probe value against a
// per-array threshold (computed from a calibrated window size by
// ValueThreshold) and dispatches to Sequential or Binary. The counter for
// the chosen strategy in stats is incremented; stats may be nil.
func Adaptive(arr []uint32, value uint32, cur *int, threshold uint32, stats *Stats) (int, bool) {
	if len(arr) == 0 {
		return 0, false
	}
	i := *cur
	if i < 0 || i >= len(arr) {
		i = 0
		*cur = 0
	}
	dist := int64(arr[i]) - int64(value)
	if dist < 0 {
		dist = -dist
	}
	if dist <= int64(threshold) {
		if stats != nil {
			stats.Sequential++
		}
		return Sequential(arr, value, cur)
	}
	if stats != nil {
		stats.Binary++
	}
	return Binary(arr, value, cur)
}

// AvgGap estimates the arithmetic difference between consecutive elements
// under the paper's uniform-distribution assumption:
// (arr[size-1] - arr[0]) / size.
func AvgGap(arr []uint32) float64 {
	if len(arr) < 2 {
		return 1
	}
	return float64(arr[len(arr)-1]-arr[0]) / float64(len(arr))
}

// ValueThreshold converts a calibrated position-window size into the
// arithmetic-value threshold used by Adaptive for a specific array, so that
// the run-time decision is a single subtraction and comparison (paper §4.1).
func ValueThreshold(arr []uint32, window int) uint32 {
	if window <= 0 {
		return 0
	}
	v := AvgGap(arr) * float64(window)
	if v < 1 {
		return 1
	}
	if v > float64(1<<31) {
		return 1 << 31
	}
	return uint32(v)
}

// WindowOf inverts ValueThreshold: a position window whose threshold over
// arr is threshold — preferred when that is one (several windows can share
// a threshold on a short or perfectly contiguous array), else the smallest
// that reaches it. A snapshot stores thresholds only; loading recovers the
// windows here so that a later merge can re-derive thresholds over a changed
// key range. ValueThreshold is monotone in the window, so the inverse is a
// bisection: bounded on any input, and a threshold no window reaches (above
// ValueThreshold's 1<<31 ceiling) maps to the largest window.
func WindowOf(arr []uint32, threshold uint32, preferred int) int {
	if ValueThreshold(arr, preferred) == threshold {
		return preferred
	}
	return sort.Search(math.MaxInt32, func(w int) bool {
		return ValueThreshold(arr, w) >= threshold
	})
}
