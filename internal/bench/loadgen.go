package bench

// loadgen.go — open-loop load generation and the "slo" experiment.
//
// The table harnesses in this package are closed loop: run a query, wait,
// run the next. A closed loop cannot see overload — when the system slows
// down the harness slows down with it, and offered load collapses to
// whatever the system can absorb. The generator here is open loop: arrivals
// follow a fixed schedule regardless of completions, the way clients on the
// far side of a network behave. Queue growth, shedding and deadline expiry
// then show up in the measurements instead of being absorbed by the
// harness.
//
// The "slo" experiment drives the public parj.Store admission path at a
// storm rate (several times the measured sustainable throughput) under two
// configurations of the store's one admission controller — a target above
// the wait, which never sheds early (the fixed-wait queue), and the 5 ms
// CoDel-style target — and reports p50/p99 latency, goodput and shed rate
// for each. The committed baseline (docs/results/BENCH_slo.json)
// documents the claim the overload work makes: at storm rates, shedding
// early buys a bounded p99 for the queries that are admitted without
// giving up goodput.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"parj"
	"parj/internal/lubm"
)

// LoadgenConfig parameterizes one open-loop run.
type LoadgenConfig struct {
	// Rate is the arrival rate in requests per second.
	Rate float64
	// Duration is the offered-load window; arrivals stop when it ends and
	// the run then drains whatever is still in flight.
	Duration time.Duration
	// Timeout is the per-request client budget, carried on the request
	// context so admission control can see the remaining deadline.
	Timeout time.Duration
}

// LoadgenResult aggregates one run's outcomes. Latency percentiles cover
// successful requests only: a shed request answers quickly by design, and
// folding it into the percentiles would flatter p99 exactly when the
// system is refusing the most work.
type LoadgenResult struct {
	// Offered is the number of scheduled arrivals.
	Offered int
	// OK counts requests that completed successfully within their budget.
	OK int
	// Shed counts typed ErrOverloaded outcomes — work the system chose to
	// refuse, with a retry hint, rather than queue past usefulness.
	Shed int
	// Expired counts deadline/cancellation outcomes: the budget ran out in
	// the admission queue, on arrival, or mid-execution.
	Expired int
	// Errors counts everything else; a healthy run has zero.
	Errors int
	// P50 and P99 are latency percentiles over the OK requests.
	P50, P99 time.Duration
	// Elapsed spans the offered-load window plus the drain.
	Elapsed time.Duration
	// GoodputQPS is OK divided by Elapsed — completed useful work per
	// second, the number overload collapse destroys.
	GoodputQPS float64
	// ShedRate is Shed divided by Offered.
	ShedRate float64
}

// RunLoadgen fires do at cfg.Rate for cfg.Duration and classifies every
// outcome. Arrivals are scheduled on absolute time: if the system stalls,
// due arrivals launch in a burst rather than waiting politely, which is
// what keeps the loop open.
func RunLoadgen(cfg LoadgenConfig, do func(ctx context.Context) error) LoadgenResult {
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	offered := int(cfg.Duration / interval)
	if offered < 1 {
		offered = 1
	}
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		lat []time.Duration
		res LoadgenResult
	)
	start := time.Now()
	for i := 0; i < offered; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			defer cancel()
			t0 := time.Now()
			err := do(ctx)
			elapsed := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				res.OK++
				lat = append(lat, elapsed)
			case errors.Is(err, parj.ErrOverloaded):
				res.Shed++
			case errors.Is(err, parj.ErrDeadlineExceeded), errors.Is(err, parj.ErrCanceled):
				res.Expired++
			default:
				res.Errors++
			}
		}()
	}
	wg.Wait()
	res.Offered = offered
	res.Elapsed = time.Since(start)
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	res.P50 = percentileDur(lat, 50)
	res.P99 = percentileDur(lat, 99)
	if s := res.Elapsed.Seconds(); s > 0 {
		res.GoodputQPS = float64(res.OK) / s
	}
	res.ShedRate = float64(res.Shed) / float64(res.Offered)
	return res
}

// percentileDur reads the p-th percentile from ascending samples by
// nearest rank.
func percentileDur(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p+99)/100 - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sloSlots is the executing-query cap both admission configurations start
// from. Deliberately small: the experiment measures the admission path
// under saturation, not join throughput, and a modest capacity keeps the
// 4x storm rate cheap to generate on any host. jsonSLO lowers it further
// when the probe query is so fast that 4x sustainable would outrun the
// arrival scheduler.
const sloSlots = 4

// sloMaxRate bounds the arrival rate; above ~1500/s the per-arrival sleep
// interval drops under scheduler granularity and the offered schedule
// stops being trustworthy.
const sloMaxRate = 1500

// sloWindow is the offered-load window per measurement block.
const sloWindow = 1500 * time.Millisecond

// jsonSLO A/Bs two admission targets at a storm arrival rate on one LUBM
// store: "noshed" queues every arrival until its deadline binds (the
// classic collapse mode — admitted queries carry the full queue delay in
// their latency), "shed" lets the controller refuse excess arrivals early
// with a typed error. Blocks interleave the two
// configurations so machine drift hits both alike, as everywhere else in
// this package.
func jsonSLO(cfg ExpConfig, blocks int) (*Report, error) {
	// A quarter of the table experiments' scale: capacity is capped by
	// sloSlots anyway, and a smaller store keeps the serial calibration
	// and the build itself in seconds.
	scale := cfg.LUBMScale / 4
	if scale < 4 {
		scale = 4
	}
	b := parj.NewBuilder(parj.LoadOptions{})
	for _, t := range lubm.Triples(scale, lubm.Config{}) {
		b.Add(t.S, t.P, t.O)
	}
	db := b.Build()

	probe, err := sloProbe(db, cfg)
	if err != nil {
		return nil, err
	}

	// Sustainable throughput with `slots` executing single-threaded
	// queries is slots/latency; the storm offers four times that. The rate
	// ceiling keeps the arrival schedule within what time.Sleep can honor,
	// so when 4x sustainable would exceed it, capacity is lowered (fewer
	// slots) instead of the storm — the point is a rate the store cannot
	// absorb, not a large absolute number.
	serial := probe.serial.Seconds()
	slots := sloSlots
	for slots > 1 && 4*float64(slots)/serial > sloMaxRate {
		slots--
	}
	sustainable := float64(slots) / serial
	storm := 4 * sustainable
	if storm < 20 {
		storm = 20
	}
	if storm > sloMaxRate {
		storm = sloMaxRate
	}
	timeout := 10 * probe.serial
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	if timeout > time.Second {
		timeout = time.Second
	}

	configs := []struct {
		name string
		opts parj.DBOptions
	}{
		{"shed", parj.DBOptions{
			MaxConcurrentQueries: slots,
			AdmissionWait:        timeout,
			AdmissionTarget:      5 * time.Millisecond,
			AdmissionInterval:    50 * time.Millisecond,
		}},
		// AdmissionWait beyond the client budget means the deadline always
		// binds first, and a target at the wait never shortens it: arrivals
		// queue until their budget expires, the pre-shedding behavior.
		{"noshed", parj.DBOptions{
			MaxConcurrentQueries: slots,
			AdmissionWait:        2 * timeout,
			AdmissionTarget:      2 * timeout,
		}},
	}

	lg := LoadgenConfig{Rate: storm, Duration: sloWindow, Timeout: timeout}
	do := func(ctx context.Context) error {
		_, err := probe.prep.Count(parj.QueryOptions{Context: ctx, Threads: 1})
		return err
	}

	// One short discarded storm per configuration warms caches and lets
	// the controller see its first saturated interval.
	for _, c := range configs {
		db.SetDBOptions(c.opts)
		RunLoadgen(LoadgenConfig{Rate: storm, Duration: 300 * time.Millisecond, Timeout: timeout}, do)
	}

	samples := map[string][]float64{}
	for blk := 0; blk < blocks; blk++ {
		for _, c := range configs {
			db.SetDBOptions(c.opts)
			r := RunLoadgen(lg, do)
			samples["p50_ms/"+c.name] = append(samples["p50_ms/"+c.name], float64(r.P50.Microseconds())/1000)
			samples["p99_ms/"+c.name] = append(samples["p99_ms/"+c.name], float64(r.P99.Microseconds())/1000)
			samples["goodput_qps/"+c.name] = append(samples["goodput_qps/"+c.name], r.GoodputQPS)
			samples["shed_rate/"+c.name] = append(samples["shed_rate/"+c.name], r.ShedRate)
			if cfg.Progress != nil {
				cfg.Progress("block %d %-6s offered %4d ok %4d shed %4d expired %4d err %d  p50 %6.1fms p99 %6.1fms goodput %6.1f qps",
					blk, c.name, r.Offered, r.OK, r.Shed, r.Expired, r.Errors,
					float64(r.P50.Microseconds())/1000, float64(r.P99.Microseconds())/1000, r.GoodputQPS)
			}
			if r.Errors > 0 {
				return nil, fmt.Errorf("bench: slo: %d untyped errors under %s config — overload must degrade into typed errors", r.Errors, c.name)
			}
		}
	}

	rep := &Report{
		Name:   "slo",
		Blocks: blocks,
		Params: map[string]string{
			// The knob a replay passes back in (TestBenchRegression), not
			// the quarter of it the store is built at.
			"lubm_scale":     fmt.Sprint(4 * scale),
			"store_scale":    fmt.Sprint(scale),
			"slots":          fmt.Sprint(slots),
			"threads":        "1",
			"probe":          probe.name,
			"storm_qps":      fmt.Sprintf("%.0f", storm),
			"timeout_ms":     fmt.Sprint(timeout.Milliseconds()),
			"window_ms":      fmt.Sprint(sloWindow.Milliseconds()),
			"serial_ms":      fmt.Sprintf("%.2f", serial*1000),
			"admission_tgt":  "5ms",
			"admission_intv": "50ms",
		},
		Medians: map[string]float64{},
		Counts:  map[string]int64{probe.name: probe.count},
		Notes:   map[string]string{},
	}
	// Latencies are medians the regression checker gates (higher is
	// worse); goodput and shed rate, where higher is better or neither,
	// are notes so it does not misread them.
	for k, xs := range samples {
		if strings.HasPrefix(k, "p50_ms/") || strings.HasPrefix(k, "p99_ms/") {
			rep.Medians[k] = median(xs)
		} else {
			rep.Notes[k] = fmt.Sprintf("%.3f", median(xs))
		}
	}
	// The acceptance pair: under shedding, goodput holds and admitted-p99
	// shrinks relative to queue-to-deadline.
	gShed, gNo := median(samples["goodput_qps/shed"]), median(samples["goodput_qps/noshed"])
	pShed, pNo := rep.Medians["p99_ms/shed"], rep.Medians["p99_ms/noshed"]
	if gNo > 0 {
		rep.Notes["goodput_ratio"] = fmt.Sprintf("%.2f", gShed/gNo)
	}
	if pShed > 0 {
		rep.Notes["p99_ratio"] = fmt.Sprintf("%.2f", pNo/pShed)
	}
	rep.Notes["p99_goodput_ok"] = fmt.Sprint(gShed >= gNo*0.9 && pShed <= pNo*1.1)
	return rep, nil
}

// sloProbeInfo is the calibrated query the storm replays.
type sloProbeInfo struct {
	name   string
	prep   *parj.Prepared
	serial time.Duration
	count  int64
}

// sloProbe prepares every LUBM query, measures each serially, and picks
// the slowest one that still fits well inside the client budget: the
// cheapest queries make the storm rate outrun the arrival scheduler, the
// pathological ones would make a single admission eat the whole window.
func sloProbe(db *parj.Store, cfg ExpConfig) (*sloProbeInfo, error) {
	var probes []*sloProbeInfo
	for _, q := range lubm.Queries() {
		prep, err := db.Prepare(q.SPARQL, false)
		if err != nil {
			return nil, fmt.Errorf("bench: slo: prepare %s: %w", q.Name, err)
		}
		var ms []float64
		var count int64
		for i := 0; i < 4; i++ {
			t0 := time.Now()
			n, err := prep.Count(parj.QueryOptions{Threads: 1})
			if err != nil {
				return nil, fmt.Errorf("bench: slo: calibrate %s: %w", q.Name, err)
			}
			count = n
			ms = append(ms, float64(time.Since(t0).Microseconds())/1000)
		}
		probes = append(probes, &sloProbeInfo{
			name:   q.Name,
			prep:   prep,
			serial: time.Duration(median(ms[1:]) * float64(time.Millisecond)),
			count:  count,
		})
	}
	sort.Slice(probes, func(a, b int) bool { return probes[a].serial < probes[b].serial })
	p := probes[0]
	for _, cand := range probes {
		if cand.serial <= 100*time.Millisecond {
			p = cand
		}
	}
	if p.serial <= 0 {
		p.serial = 100 * time.Microsecond
	}
	if cfg.Progress != nil {
		cfg.Progress("slo probe %s: serial %.2fms, %d rows", p.name, p.serial.Seconds()*1000, p.count)
	}
	return p, nil
}
