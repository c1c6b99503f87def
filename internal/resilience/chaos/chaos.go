// Package chaos is a deterministic fault-injection TCP proxy for testing
// the distributed serving tier. A Proxy sits between the coordinator and
// one replica and applies a scripted fault per accepted connection:
// extra latency, an immediate connection reset, a response cut mid-body,
// or a malformed (non-protocol) response. Scripts are plain functions of
// the connection ordinal, so a seeded script replays the same fault
// sequence on every run — chaos tests are reproducible, not flaky.
//
// Kill simulates the replica dying: it severs every active connection and
// refuses all future ones, which is exactly what a crashed node looks like
// to the coordinator.
package chaos

import (
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Fault describes what happens to one proxied connection.
type Fault struct {
	// Delay is added before the response bytes start flowing.
	Delay time.Duration
	// Reset closes the connection immediately on accept (with SO_LINGER 0,
	// so the client sees a TCP reset rather than a clean EOF).
	Reset bool
	// CutResponseAfter, when > 0, forwards only that many response bytes
	// and then severs the connection — a node dying mid-body.
	CutResponseAfter int
	// Garbage responds with bytes that are not valid HTTP at all.
	Garbage bool
	// TrickleBytes, when > 0, forwards the response in chunks of that many
	// bytes with TrickleDelay between chunks — a slow-loris replica that
	// keeps the connection alive while starving the reader. Unlike Delay
	// (one stall before the first byte), a trickle defeats first-byte
	// timeouts; only a per-attempt deadline bounds it.
	TrickleBytes int
	TrickleDelay time.Duration
	// KillAfter kills the whole proxy once this connection ends: the
	// replica is gone for the rest of the test.
	KillAfter bool
}

// Script decides the fault for the n-th accepted connection (0-based).
type Script func(conn int) Fault

// None is the identity script: every connection is proxied cleanly.
func None(int) Fault { return Fault{} }

// CutFirstThenKill scripts the "replica dies mid-query" scenario: the
// first connection has its response cut after n bytes and the proxy then
// kills itself; there is no second connection.
func CutFirstThenKill(n int) Script {
	return func(conn int) Fault {
		return Fault{CutResponseAfter: n, KillAfter: true}
	}
}

// SlowLoris scripts a replica that answers every connection byte-by-byte:
// chunk response bytes every delay. The connection never dies and never
// completes within any reasonable deadline — the scenario only per-attempt
// timeouts (and hedges racing them) can recover from.
func SlowLoris(chunk int, delay time.Duration) Script {
	if chunk <= 0 {
		chunk = 1
	}
	return func(conn int) Fault {
		return Fault{TrickleBytes: chunk, TrickleDelay: delay}
	}
}

// SeededConfig drives Seeded scripts.
type SeededConfig struct {
	// ResetP, CutP, GarbageP are per-connection fault probabilities
	// (checked in that order).
	ResetP, CutP, GarbageP float64
	// DelayP is the probability of injected latency of up to MaxDelay.
	DelayP   float64
	MaxDelay time.Duration
	// CutAfter is the byte offset used for cuts (default 64).
	CutAfter int
}

// Seeded returns a deterministic random script: the fault for connection n
// depends only on (seed, n).
func Seeded(seed int64, cfg SeededConfig) Script {
	if cfg.CutAfter <= 0 {
		cfg.CutAfter = 64
	}
	return func(conn int) Fault {
		rng := rand.New(rand.NewSource(seed + int64(conn)*2654435761))
		var f Fault
		switch r := rng.Float64(); {
		case r < cfg.ResetP:
			f.Reset = true
		case r < cfg.ResetP+cfg.CutP:
			f.CutResponseAfter = cfg.CutAfter
		case r < cfg.ResetP+cfg.CutP+cfg.GarbageP:
			f.Garbage = true
		}
		if rng.Float64() < cfg.DelayP && cfg.MaxDelay > 0 {
			f.Delay = time.Duration(rng.Int63n(int64(cfg.MaxDelay)))
		}
		return f
	}
}

// Proxy forwards TCP connections to a target address, applying scripted
// faults.
type Proxy struct {
	target string
	script Script
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	next   int
	killed bool

	wg sync.WaitGroup
}

// New starts a proxy on a fresh loopback port in front of target
// (host:port). Close (or Kill) must be called to release it.
func New(target string, script Script) (*Proxy, error) {
	if script == nil {
		script = None
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, script: script, ln: ln, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's base URL for HTTP clients.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// Conns reports how many connections have been accepted so far.
func (p *Proxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// Kill simulates the replica crashing: active connections are severed and
// the listener closed, so future dials are refused. Idempotent.
func (p *Proxy) Kill() {
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		return
	}
	p.killed = true
	for c := range p.conns {
		hardClose(c)
	}
	p.mu.Unlock()
	p.ln.Close()
}

// Close shuts the proxy down and waits for its goroutines, so leak checks
// stay clean. Safe after Kill.
func (p *Proxy) Close() {
	p.Kill()
	p.wg.Wait()
}

func (p *Proxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.killed {
			p.mu.Unlock()
			hardClose(c)
			continue
		}
		n := p.next
		p.next++
		p.conns[c] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.handle(c, p.script(n))
	}
}

func (p *Proxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(client net.Conn, f Fault) {
	defer p.wg.Done()
	defer p.forget(client)
	if f.KillAfter {
		defer p.Kill()
	}

	if f.Reset {
		hardClose(client)
		return
	}
	if f.Garbage {
		// Read a little of the request so the client finishes writing,
		// then answer with bytes no HTTP client accepts.
		buf := make([]byte, 512)
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		client.Read(buf)
		client.Write([]byte("\x00\xffnot-http at all\r\n\r\n"))
		client.Close()
		return
	}

	server, err := net.Dial("tcp", p.target)
	if err != nil {
		hardClose(client)
		return
	}
	p.mu.Lock()
	if p.killed {
		p.mu.Unlock()
		hardClose(client)
		hardClose(server)
		return
	}
	p.conns[server] = struct{}{}
	p.mu.Unlock()
	defer p.forget(server)

	// Request side: pump client -> server until the client closes.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()

	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.CutResponseAfter > 0 {
		io.CopyN(client, server, int64(f.CutResponseAfter))
		hardClose(client)
		hardClose(server)
		return
	}
	if f.TrickleBytes > 0 {
		// Drip the response until either side gives up (the client closing
		// its end — e.g. a per-attempt timeout — breaks the copy), or the
		// proxy is killed (hardClose breaks it too).
		for {
			if _, err := io.CopyN(client, server, int64(f.TrickleBytes)); err != nil {
				if err == io.EOF {
					// Response actually finished; deliver it cleanly so a
					// patient reader still gets a valid reply.
					client.Close()
					server.Close()
				} else {
					hardClose(client)
					hardClose(server)
				}
				return
			}
			time.Sleep(f.TrickleDelay)
		}
	}
	io.Copy(client, server)
	client.Close()
	server.Close()
}

// hardClose drops the connection with SO_LINGER 0 so the peer observes a
// reset instead of an orderly shutdown.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
