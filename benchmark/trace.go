package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records one span around every call the benchmark makes into
// a layer's exported functions. Nothing inside the program is instrumented:
// the traced drivers in layers.go compose the same calls the public API
// makes, so that the time between two layer boundaries has a name.

// rootLayer names the span that covers one whole operation; its self time is
// the benchmark's own glue and is never counted as a program layer.
const rootLayer = "bench.op"

// span is one timed call. Spans of one operation share Req; Parent is the ID
// of the span that caused this one (0 for the root).
type span struct {
	Req    uint64 `json:"req"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Layer  string `json:"layer"`
	Op     string `json:"op,omitempty"` // operation type, on root spans only
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	// maxSpans bounds memory: a 20 µs point query emits six spans, so an
	// unbounded traced window would hold millions.
	maxSpans = 1 << 20
	// maxSpansWritten bounds the span file (~110 bytes per span).
	maxSpansWritten = 100_000
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	nextReq uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newReq opens an operation. It returns 0 once the span budget is spent;
// spans of request 0 are dropped, so operations are recorded whole or not
// at all.
func (t *tracer) newReq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans-64 {
		return 0
	}
	t.nextReq++
	return t.nextReq
}

// open is a span in progress.
type open struct {
	t  *tracer
	sp span
}

func (t *tracer) begin(req, parent uint64, layer string) open {
	if req == 0 {
		return open{}
	}
	return open{t: t, sp: span{Req: req, ID: t.nextID.Add(1), Parent: parent, Layer: layer, Start: int64(time.Since(t.epoch))}}
}

// beginOp opens the root span of one operation of type op.
func (t *tracer) beginOp(req uint64, op string) open {
	o := t.begin(req, 0, rootLayer)
	o.sp.Op = op
	return o
}

func (o open) id() uint64 { return o.sp.ID }

// end closes the span and returns its duration.
func (o open) end() time.Duration {
	if o.t == nil {
		return 0
	}
	o.sp.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.sp)
	o.t.mu.Unlock()
	return time.Duration(o.sp.End - o.sp.Start)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spansFrom keeps the spans of operations whose root span starts at or after
// cut (nanoseconds since the tracer's epoch): the measured window.
func spansFrom(spans []span, cut int64) []span {
	keep := make(map[uint64]bool)
	for _, s := range spans {
		if s.Layer == rootLayer && s.Start >= cut {
			keep[s.Req] = true
		}
	}
	var out []span
	for _, s := range spans {
		if keep[s.Req] {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children may overlap (shards
// run side by side), so the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerProfile is the traced view of one operation type.
type layerProfile struct {
	// N is the number of traced operations.
	N int
	// Root is the median duration of the whole traced operation.
	Root time.Duration
	// Self maps layer → median over operations of the layer's summed self
	// time within the operation (root layer excluded).
	Self map[string]time.Duration
}

// profile groups spans by operation type and reduces them to medians.
func profile(spans []span) map[string]*layerProfile {
	self := selfTimes(spans)
	type opAcc struct {
		op     string
		root   time.Duration
		layers map[string]time.Duration
	}
	reqs := make(map[uint64]*opAcc)
	for _, s := range spans {
		a := reqs[s.Req]
		if a == nil {
			a = &opAcc{layers: make(map[string]time.Duration)}
			reqs[s.Req] = a
		}
		if s.Layer == rootLayer {
			a.op, a.root = s.Op, time.Duration(s.End-s.Start)
			continue
		}
		a.layers[s.Layer] += self[s.ID]
	}
	type samples struct {
		roots  []time.Duration
		layers map[string][]time.Duration
	}
	byOp := make(map[string]*samples)
	for _, a := range reqs {
		sm := byOp[a.op]
		if sm == nil {
			sm = &samples{layers: make(map[string][]time.Duration)}
			byOp[a.op] = sm
		}
		sm.roots = append(sm.roots, a.root)
		for l, d := range a.layers {
			sm.layers[l] = append(sm.layers[l], d)
		}
	}
	out := make(map[string]*layerProfile, len(byOp))
	for op, sm := range byOp {
		p := &layerProfile{N: len(sm.roots), Root: medianDur(sm.roots), Self: make(map[string]time.Duration)}
		for l, ds := range sm.layers {
			// An operation that never entered the layer spent zero there.
			for len(ds) < len(sm.roots) {
				ds = append(ds, 0)
			}
			p.Self[l] = medianDur(ds)
		}
		out[op] = p
	}
	return out
}

// writeSpans writes the first maxSpansWritten spans as JSON lines.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i == maxSpansWritten {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
