package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFailFirstThenPass(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	in := New()
	in.Set(srv.URL+"/x", Plan{FailFirst: 2})
	client := &http.Client{Transport: in.Transport(nil)}

	for i := 0; i < 2; i++ {
		_, err := client.Get(srv.URL + "/x")
		var inj *InjectedError
		if err == nil || !errors.As(err, &inj) {
			t.Fatalf("call %d: want injected error, got %v", i, err)
		}
		if inj.Call != i {
			t.Fatalf("call index = %d, want %d", inj.Call, i)
		}
	}
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatalf("call 2 should pass: %v", err)
	}
	resp.Body.Close()
	if got := in.Calls(srv.URL + "/x"); got != 3 {
		t.Fatalf("Calls = %d, want 3", got)
	}
}

func TestFailAllIsPermanent(t *testing.T) {
	in := New()
	in.Set("http://127.0.0.1:9/dead", Plan{FailAll: true})
	client := &http.Client{Transport: in.Transport(nil)}
	for i := 0; i < 5; i++ {
		if _, err := client.Get("http://127.0.0.1:9/dead"); err == nil {
			t.Fatalf("call %d passed a FailAll plan", i)
		}
	}
}

func TestUnplannedEndpointsPassThrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	in := New()
	in.Set("http://other:1/x", Plan{FailAll: true})
	client := &http.Client{Transport: in.Transport(nil)}
	resp, err := client.Get(srv.URL + "/y")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); string(body) != "ok" {
		t.Fatalf("body = %q", body)
	}
	if in.Calls(srv.URL+"/y") != 1 {
		t.Fatal("pass-through calls are not counted per endpoint once planned")
	}
}

func TestDropBlocksUntilCallerTimeout(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("dropped request reached the server")
	}))
	defer srv.Close()
	in := New()
	in.Set(srv.URL+"/x", Plan{DropFirst: 1})
	client := &http.Client{Transport: in.Transport(nil), Timeout: 50 * time.Millisecond}
	start := time.Now()
	_, err := client.Get(srv.URL + "/x")
	if err == nil {
		t.Fatal("dropped call returned a response")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drop did not release at the client timeout: %v", elapsed)
	}
}

func TestKeyNormalization(t *testing.T) {
	for in, want := range map[string]string{
		"http://h:80/p": "h:80/p",
		"https://h:443": "h:443",
		"tcp://h:9":     "h:9",
		"h:9":           "h:9",
	} {
		if got := Key(in); got != want {
			t.Fatalf("Key(%q) = %q, want %q", in, got, want)
		}
	}
	if !strings.Contains((&InjectedError{Endpoint: "e", Call: 2}).Error(), "call 2") {
		t.Fatal("InjectedError misformats")
	}
}
