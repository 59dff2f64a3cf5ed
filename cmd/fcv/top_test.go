package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/process"
	"repro/internal/serve"
	"repro/internal/timing"
)

const topTestDeck = `
.subckt inv a y
mn y a vss vss nmos w=2 l=0.75
mp y a vdd vdd pmos w=4 l=0.75
.ends
x1 in mid inv
x2 mid out inv
`

// TestTopOnceRendersDashboard boots an in-process daemon, serves one
// request, and checks `fcv top -once` renders every dashboard section
// from the live /stats + /metrics pair.
func TestTopOnceRendersDashboard(t *testing.T) {
	cfg := serve.Config{
		Core:   core.Options{Proc: process.CMOS075(), Clock: timing.TwoPhase(3000)},
		SlowMS: 0.0001,
	}
	srv := serve.New(cfg)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := hs.Client().Post(hs.URL+"/verify", "text/plain", strings.NewReader(topTestDeck))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var out strings.Builder
	if err := runTop([]string{"-once", "-addr", hs.URL}, &out); err != nil {
		t.Fatalf("fcv top -once: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"fcv top — " + hs.URL,
		"1 served",
		"req/s",
		"p50", "p99",
		"pool", "queue",
		"verdicts   pass",
		"cache      hits 0  misses 1",
		"parse      hits 0  misses 1",
		"store      entries 2 ", // the record and the parsed deck
		"evictions 0",
		"subcell    hits 0  misses 0  (- hit)   composed 0",
		"goroutines",
		"heap",
		"slow traces 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("dashboard missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\x1b[") {
		t.Error("-once frame contains ANSI clear sequences")
	}
}

// TestTopUnreachableDaemon a dead address is an error, not a hang or an
// empty dashboard.
func TestTopUnreachableDaemon(t *testing.T) {
	var out strings.Builder
	err := runTop([]string{"-once", "-addr", "http://127.0.0.1:1"}, &out)
	if err == nil {
		t.Fatal("top against a dead daemon returned nil")
	}
}
