package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diffra/internal/service"
)

const remoteSrc = `
func sum(v0) {
entry:
  v1 = li 0
  v2 = li 1
  jmp loop
loop:
  v1 = add v1, v0
  v0 = sub v0, v2
  br v0 -> loop, done
done:
  ret v1
}
`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteSuccess(t *testing.T) {
	srv := newTestServer(t)
	var out strings.Builder
	err := remote(&out, srv.URL, service.Request{IR: remoteSrc, Scheme: "select", RegN: 8, DiffN: 4, Restarts: 20})
	if err != nil {
		t.Fatalf("remote: %v", err)
	}
	got := out.String()
	for _, want := range []string{"function       sum (remote)", "scheme         select (RegN=8 DiffN=4)", "set_last_reg"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRemoteServerErrorSurfaced(t *testing.T) {
	srv := newTestServer(t)
	// A semantic compile error (unknown scheme) comes back as a 422
	// with a Response.Error; remote must return that exact message so
	// main prints it and exits non-zero.
	var out strings.Builder
	err := remote(&out, srv.URL, service.Request{IR: remoteSrc, Scheme: "nonesuch"})
	if err == nil {
		t.Fatal("server error not surfaced")
	}
	if !strings.Contains(err.Error(), "nonesuch") {
		t.Errorf("error lost the server's message: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("failed compile still printed a report:\n%s", out.String())
	}

	// Malformed IR takes the same path.
	if err := remote(&out, srv.URL, service.Request{IR: "func {"}); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestRemoteNonJSONReply(t *testing.T) {
	// Wrong endpoint or a proxy error page: the reply is not a service
	// Response. remote must report the status and the body verbatim
	// instead of a bare JSON decode error.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such route here", http.StatusNotFound)
	}))
	defer srv.Close()
	err := remote(&strings.Builder{}, srv.URL, service.Request{IR: remoteSrc})
	if err == nil {
		t.Fatal("non-JSON reply not surfaced")
	}
	if !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "no such route here") {
		t.Errorf("error should carry status and body: %v", err)
	}
}

func TestRemoteConnectionRefused(t *testing.T) {
	if err := remote(&strings.Builder{}, "127.0.0.1:1", service.Request{IR: remoteSrc}); err == nil {
		t.Fatal("transport failure not surfaced")
	}
}
