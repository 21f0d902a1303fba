package main

import (
	"net/http"
	"testing"

	"repro/internal/serve"
)

// TestHTTPServerIsBounded: every way a client can hold a connection
// open has a bound, and the bounds admit the slowest request the server
// is sized for (a full read, then a handler held for the default drain).
func TestHTTPServerIsBounded(t *testing.T) {
	s := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.WriteTimeout <= 0 || s.IdleTimeout <= 0 || s.MaxHeaderBytes <= 0 {
		t.Fatalf("unbounded http.Server: header %v read %v write %v idle %v header bytes %d",
			s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout, s.IdleTimeout, s.MaxHeaderBytes)
	}
	if s.ReadTimeout < s.ReadHeaderTimeout || s.WriteTimeout < s.ReadTimeout+serve.DefaultDrainTimeout {
		t.Errorf("read %v / write %v: the write bound must cover a full read plus a default drain (%v)",
			s.ReadTimeout, s.WriteTimeout, serve.DefaultDrainTimeout)
	}
}
