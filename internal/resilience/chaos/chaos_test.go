package chaos

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parj/internal/testutil"
)

// backend returns a 512-byte-response HTTP server. Callers must defer
// srv.Close() AFTER registering LeakCheck so the accept loop is gone
// before the leak check polls.
func backend(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strings.Repeat("payload-", 64)) // 512 bytes
	}))
}

// client returns an HTTP client that opens a fresh connection per request,
// so connection ordinals match request ordinals deterministically.
func client() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
}

func TestProxyPassesThrough(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := backend(t)
	defer srv.Close()
	p, err := New(strings.TrimPrefix(srv.URL, "http://"), None)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := client().Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(body) != 512 {
		t.Fatalf("status %d, body %d bytes", resp.StatusCode, len(body))
	}
	if p.Conns() != 1 {
		t.Fatalf("conns %d, want 1", p.Conns())
	}
}

func TestProxyFaults(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := backend(t)
	defer srv.Close()
	target := strings.TrimPrefix(srv.URL, "http://")

	cases := []struct {
		name  string
		fault Fault
	}{
		{"reset", Fault{Reset: true}},
		{"cut-mid-body", Fault{CutResponseAfter: 64}},
		{"garbage", Fault{Garbage: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(target, func(int) Fault { return c.fault })
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			resp, err := client().Get(p.URL())
			if err == nil {
				// A cut can surface as an error on Get or on body read.
				_, err = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
			if err == nil {
				t.Fatalf("fault %+v: request succeeded", c.fault)
			}
		})
	}
}

func TestProxyKillRefusesNewConnections(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := backend(t)
	defer srv.Close()
	p, err := New(strings.TrimPrefix(srv.URL, "http://"), None)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	addr := p.Addr()
	resp, err := client().Get(p.URL())
	if err != nil {
		t.Fatal(err)
	}
	// An unread, unclosed body keeps the client's connection goroutines
	// alive until the client's own 5 s timeout, which races the leak check.
	resp.Body.Close()
	p.Kill()
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Kill")
	}
}

func TestCutFirstThenKill(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := backend(t)
	defer srv.Close()
	p, err := New(strings.TrimPrefix(srv.URL, "http://"), CutFirstThenKill(16))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	resp, err := client().Get(p.URL())
	if err == nil {
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	if err == nil {
		t.Fatal("first request survived a 16-byte cut")
	}
	// The proxy is now dead: the next dial must be refused.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := net.DialTimeout("tcp", p.Addr(), time.Second); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proxy still accepting after KillAfter connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSeededScriptDeterministic(t *testing.T) {
	cfg := SeededConfig{ResetP: 0.2, CutP: 0.2, GarbageP: 0.2, DelayP: 0.5, MaxDelay: 10 * time.Millisecond}
	a, b := Seeded(99, cfg), Seeded(99, cfg)
	for i := 0; i < 200; i++ {
		if fmt.Sprint(a(i)) != fmt.Sprint(b(i)) {
			t.Fatalf("connection %d: same seed produced different faults", i)
		}
	}
	diff := false
	c := Seeded(100, cfg)
	for i := 0; i < 200; i++ {
		if fmt.Sprint(a(i)) != fmt.Sprint(c(i)) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical scripts")
	}
}
