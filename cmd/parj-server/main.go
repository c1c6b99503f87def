// Command parj-server serves one full replica of a store over HTTP. Every
// replica is the same process: which endpoints get traffic — whole queries
// from clients, shard ranges from a coordinator (internal/cluster.Remote),
// the replicated write stream — is the deployment's business, not a mode
// of the binary. Every query runs under a deadline, a row/memory budget
// and the admission controller, so a hostile query (the 1.6-billion-row
// cross products of the paper's §5.2 discussion) degrades into a typed
// HTTP error instead of taking the process down.
//
// Usage:
//
//	parj-server -data graph.nt -addr :8080 -timeout 30s -max-concurrent 8
//	parj-server -warm-from http://peer1:8080,http://peer2:8080 -addr :8081
//	parj-server -wal /var/lib/parj -data graph.nt      # durable; -data seeds the first boot only
//
// Endpoints (internal/remote holds the handler and the wire types):
//
//	GET  /query?query=SELECT...   execute a SPARQL query, decoded rows as JSON
//	POST /query                   query in the body (or form field "query")
//	POST /exec                    evaluate a shard range of a query (coordinator protocol)
//	POST /write                   apply a write batch ({"seq":N,"inserts":[...],"deletes":[...]}; seq omitted = next)
//	POST /reconcile               merge pending writes into a fresh base store
//	GET  /snapshot                CRC-checked snapshot stream (X-Parj-Write-Seq: stream position)
//	GET  /healthz                 liveness + load signal
//	GET  /readyz                  readiness: 503 while loading or draining
//	GET  /statz                   cumulative serving, admission, write-stream and WAL stats
//
// The listener comes up before the replica finishes loading, so
// orchestrators and coordinators can watch /readyz flip from 503 to 200
// instead of timing out on a closed port; it flips back to 503 the moment
// a drain starts. SIGINT/SIGTERM drains in-flight requests before exiting.
//
// The flags configure two things. The replica — its admission controller
// and shared memory pool (-max-concurrent, -admission-*,
// -shared-memory-budget), its reconciler (-reconcile-ops) and its
// write-ahead log (-wal*) — is one live.Handle built by live.Open from
// live.Options, which also recovers it from -wal and is checkpointed and
// closed through the handle. The HTTP shell over it takes only the /query
// defaults (-threads, -timeout, -max-rows, -memory-budget) as
// remote.NodeOptions.
//
// Status mapping: 400 unparsable or unplannable query, 409 write sequence
// gap, 413 budget exceeded, 503 overloaded or not ready (with
// Retry-After), 504 deadline exceeded or client gone, 500 contained engine
// fault.
//
// -warm-from bootstraps a joining replica from a running peer instead of a
// local file: the node pulls a peer's /snapshot stream (CRC-verified; a
// peer that is draining still serves snapshots, so a successor can warm
// from the node it replaces), retrying across the listed peers until one
// succeeds. Only once the snapshot is resident does /readyz report 200 —
// which is when a coordinator whose table lists the node's address can
// Resync it: replay the writes the snapshot lacks and route to it again.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"parj/internal/live"
	"parj/internal/remote"
	"parj/internal/store"
	"parj/internal/wal"
)

// config is the parsed command line.
type config struct {
	dataPath    string
	warmFrom    string
	warmTimeout time.Duration
	addr        string
	noIndex     bool
	drain       time.Duration
	node        remote.NodeOptions
	live        live.Options // the replica's governance and log; Durability.Dir == "" = volatile
	ckptOps     int
	ckptIntv    time.Duration
}

func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("parj-server", flag.ContinueOnError)
	fs.StringVar(&c.dataPath, "data", "", "N-Triples or .snapshot file to load")
	fs.StringVar(&c.warmFrom, "warm-from", "", "comma-separated peer base URLs to warm a joining replica from (alternative to -data)")
	fs.DurationVar(&c.warmTimeout, "warm-timeout", 5*time.Minute, "give up warming from peers after this long")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&c.noIndex, "noindex", false, "skip building ID-to-Position indexes")
	fs.DurationVar(&c.drain, "drain", 15*time.Second, "graceful-shutdown drain limit")
	fs.IntVar(&c.node.Query.Threads, "threads", 0, "worker threads per /query (0 = GOMAXPROCS)")
	fs.DurationVar(&c.node.Query.Timeout, "timeout", 30*time.Second, "per-/query wall-clock limit (0 = none)")
	fs.Int64Var(&c.node.Query.MaxResultRows, "max-rows", 10_000_000, "per-/query produced-row budget (0 = unlimited)")
	fs.Int64Var(&c.node.Query.MemoryBudget, "memory-budget", 1<<30, "per-/query materialized-result byte budget (0 = unlimited)")
	fs.Int64Var(&c.live.SharedMemoryBudget, "shared-memory-budget", 0, "materialized-result byte budget shared across ALL concurrent requests (0 = unlimited)")
	fs.IntVar(&c.live.MaxConcurrentQueries, "max-concurrent", 8, "/query and /exec requests executing at once; further ones queue then shed (0 = unlimited)")
	fs.DurationVar(&c.live.AdmissionWait, "admission-wait", 2*time.Second, "how long an over-admission request queues before 503 (0 = do not queue)")
	fs.DurationVar(&c.live.AdmissionTarget, "admission-target", 0, "acceptable admission-queue sojourn; sustained above it, excess requests shed after the target instead of the full wait (0 = 5ms default; >= -admission-wait never sheds early)")
	fs.DurationVar(&c.live.AdmissionInterval, "admission-interval", 0, "admission control window (0 = 100ms default)")
	fs.IntVar(&c.live.AutoReconcileOps, "reconcile-ops", 4096, "pending write verdicts that trigger background reconciliation (0 = only on explicit /reconcile)")
	fs.StringVar(&c.live.Durability.Dir, "wal", "", "write-ahead-log directory; makes the replica durable (recovers on start, journals every write)")
	walSync := fs.String("wal-sync", "always", "WAL fsync policy: always (group commit), interval, never")
	fs.DurationVar(&c.live.Durability.SyncInterval, "wal-sync-interval", 50*time.Millisecond, "flush period under -wal-sync=interval")
	fs.Int64Var(&c.live.Durability.SegmentBytes, "wal-segment-bytes", 0, "WAL segment size before rotation (0 = default 4 MiB)")
	fs.IntVar(&c.ckptOps, "checkpoint-ops", 4096, "write batches between automatic checkpoints (0 = never checkpoint automatically)")
	fs.DurationVar(&c.ckptIntv, "checkpoint-interval", time.Minute, "how often the checkpoint loop looks at the write position")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.dataPath != "" && c.warmFrom != "" {
		return nil, errors.New("-data and -warm-from are mutually exclusive")
	}
	// A durable replica can also start bare: recovery alone rebuilds it
	// from its own WAL directory.
	if c.live.Durability.Dir == "" && c.dataPath == "" && c.warmFrom == "" {
		return nil, errors.New("one of -data, -warm-from or -wal is required")
	}
	var err error
	c.live.Durability.Sync, err = wal.ParseSyncPolicy(*walSync)
	return c, err
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "parj-server:", err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parj-server:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, ln); err != nil {
		fmt.Fprintln(os.Stderr, "parj-server:", err)
		os.Exit(1)
	}
}

// run serves on ln until ctx is done, then drains. Listen first, load
// second: until the replica is resident a not-ready node over an empty
// store answers, so /readyz and every query path say 503 "starting" — not
// a closed port — and /healthz says alive.
func run(ctx context.Context, cfg *config, ln net.Listener) error {
	bo := store.BuildOptions{BuildPosIndex: !cfg.noIndex}
	var serving atomic.Pointer[http.Handler]
	loading := remote.NewNode(store.LoadTriples(nil, bo), nil, remote.NodeOptions{NotReady: true}).Handler()
	serving.Store(&loading)
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*serving.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	start := time.Now()
	h, err := open(ctx, cfg, bo)
	if err != nil {
		srv.Close()
		return fmt.Errorf("load: %w", err)
	}
	node := remote.NewNodeHandle(h, cfg.node)
	loaded := node.Handler()
	serving.Store(&loaded)
	v := h.View()
	fmt.Fprintf(os.Stderr, "replica loaded: %d triples at write seq %d in %v; serving on %s\n",
		v.ApproxTriples(), v.Seq(), time.Since(start).Round(time.Millisecond), ln.Addr())

	// The checkpoint loop bounds replay time: once enough write batches
	// accumulate past the newest checkpoint, the current view is published
	// as a snapshot and the covered WAL segments are pruned.
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		if !h.Durability().Enabled || cfg.ckptOps <= 0 {
			return
		}
		t := time.NewTicker(cfg.ckptIntv)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if h.Seq() >= h.Durability().CheckpointSeq+uint64(cfg.ckptOps) {
					if err := h.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "parj-server: checkpoint:", err)
					}
				}
			}
		}
	}()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "parj-server: draining in-flight requests...")
	node.StartDrain()
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		// Drain limit hit: sever the remaining connections; their request
		// contexts cancel the still-running queries.
		srv.Close()
	}
	<-ckptDone
	if err := h.Close(); err != nil {
		return fmt.Errorf("wal close: %w", err)
	}
	return nil
}

// open builds the replica's live handle under cfg.live: WAL recovery when
// -wal is set (newest loadable checkpoint plus the log suffix), the seed
// otherwise.
func open(ctx context.Context, cfg *config, bo store.BuildOptions) (*live.Handle, error) {
	// seed supplies the base state when there is no WAL or its directory
	// holds no prior state (a durable replica's first boot) — a restarted
	// replica rebuilds itself without touching -data or its peers, then the
	// coordinator resyncs just the missing tail. A snapshot warmed from a
	// peer embeds that peer's write-stream position: the replica resumes
	// the stream there, so a coordinator's resync replays exactly the
	// batches the snapshot does not contain.
	return live.Open(cfg.live, func() (*store.Store, uint64, error) {
		switch {
		case cfg.warmFrom != "":
			return warmFromPeers(ctx, strings.Split(cfg.warmFrom, ","), cfg.warmTimeout)
		case cfg.dataPath != "":
			st, err := store.LoadFile(cfg.dataPath, bo)
			return st, 0, err
		default:
			return nil, 0, nil
		}
	}, bo)
}

// warmFromPeers pulls a CRC-checked snapshot stream from the first peer
// that serves one, cycling through the list with backoff until the timeout.
// A truncated or corrupt stream fails verification and moves on to the next
// peer, so a peer dying mid-transfer delays the warmup but never poisons it.
func warmFromPeers(ctx context.Context, peers []string, timeout time.Duration) (*store.Store, uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	delay := time.Second
	var lastErr error
	for {
		for _, peer := range peers {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			c := remote.NewClient(peer, 0)
			st, seq, err := c.SnapshotSeq(ctx)
			c.Close()
			if err == nil {
				fmt.Fprintf(os.Stderr, "parj-server: warmed from %s at write seq %d\n", peer, seq)
				return st, seq, nil
			}
			lastErr = err
			fmt.Fprintf(os.Stderr, "parj-server: warm-from %s: %v\n", peer, err)
		}
		select {
		case <-ctx.Done():
			return nil, 0, fmt.Errorf("warm-from: no peer served a snapshot in %v: %w", timeout, lastErr)
		case <-time.After(delay):
		}
		if delay *= 2; delay > 10*time.Second {
			delay = 10 * time.Second
		}
	}
}
