package search

import "time"

// Calibration defaults. The paper reports that on its test machine the
// calibrated window is about 200 positions when the alternative is binary
// search and about 20 positions when the alternative is the ID-to-Position
// index; these serve as starting points and as deterministic fallbacks.
const (
	DefaultBinaryWindow = 200
	DefaultIndexWindow  = 20

	// DefaultRatio is the stop ratio for calibration: iteration ends when
	// the larger of the two strategy timings is within this factor of the
	// smaller.
	DefaultRatio = 1.15

	// maxCalibrationRounds bounds the calibration loop; timing noise could
	// otherwise make the ratio oscillate above the stop threshold forever.
	maxCalibrationRounds = 24
)

// CalibrateOptions configures Calibrate.
type CalibrateOptions struct {
	// NoOfSearches is how many probes to time per strategy per round.
	NoOfSearches int
	// StartingWindowSize is the initial window (positions).
	StartingWindowSize int
	// Ratio is the stop threshold (>1); see DefaultRatio.
	Ratio float64
}

func (o *CalibrateOptions) fill() {
	if o.NoOfSearches <= 0 {
		o.NoOfSearches = 2000
	}
	if o.StartingWindowSize <= 0 {
		o.StartingWindowSize = DefaultBinaryWindow
	}
	if o.Ratio <= 1 {
		o.Ratio = DefaultRatio
	}
}

// Locator is an alternative point-lookup strategy competing against
// sequential search during calibration — full-array binary search or an
// ID-to-Position index lookup.
type Locator func(arr []uint32, value uint32, cur *int) (int, bool)

// Calibrate implements Algorithm 2 of the paper. It searches for the window
// size (a distance in array positions) at which locate and Sequential take
// roughly equal time, by repeatedly timing NoOfSearches probes whose keys
// are spaced CurrentWindowSize positions apart and rescaling the window by
// the observed time ratio until the ratio drops below opts.Ratio.
//
// The returned window is a position count; convert it with ValueThreshold
// before use. Calibration runs once after data loading (paper §4.1), never
// on the query path.
func Calibrate(arr []uint32, locate Locator, opts CalibrateOptions) int {
	opts.fill()
	if len(arr) < 4 {
		return opts.StartingWindowSize
	}
	avgGap := AvgGap(arr)
	if avgGap <= 0 {
		avgGap = 1
	}
	next := float64(opts.StartingWindowSize)
	window := next
	for round := 0; round < maxCalibrationRounds; round++ {
		window = next
		if window < 1 {
			window = 1
		}
		if window > float64(len(arr)) {
			window = float64(len(arr))
		}
		totalGap := avgGap * window
		if totalGap < 1 {
			totalGap = 1
		}

		timeLocate := timeProbes(arr, locate, totalGap, opts.NoOfSearches)
		timeScan := timeProbes(arr, adaptAlwaysSequential, totalGap, opts.NoOfSearches)

		var fraction float64
		if timeLocate > timeScan {
			fraction = float64(timeLocate) / float64(timeScan)
			next = window * fraction
		} else {
			fraction = float64(timeScan) / float64(timeLocate)
			next = window / fraction
		}
		if fraction <= opts.Ratio {
			break
		}
	}
	if window < 1 {
		return 1
	}
	return int(window)
}

func adaptAlwaysSequential(arr []uint32, value uint32, cur *int) (int, bool) {
	return Sequential(arr, value, cur)
}

// timeProbes times n probes with keys spaced gap apart in value space,
// wrapping around the array's value range.
func timeProbes(arr []uint32, probe Locator, gap float64, n int) time.Duration {
	lo, hi := float64(arr[0]), float64(arr[len(arr)-1])
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	cur := 0
	toFind := lo
	start := time.Now()
	for k := 0; k < n; k++ {
		probe(arr, uint32(toFind), &cur)
		toFind += gap
		if toFind > hi {
			toFind = lo + (toFind - hi) // wrap to keep probes in range
			if toFind > hi {
				toFind = lo
			}
			cur = 0
		}
	}
	return time.Since(start)
}
