package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonLifecycle boots the daemon in-process on a free port,
// performs a cold and a warm compare against it, and drains it with
// SIGTERM: exit 0, the address file published atomically, and the warm
// response served with zero guest blocks.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	sig := make(chan os.Signal, 1)
	var errBuf bytes.Buffer
	exited := make(chan int, 1)
	go func() {
		exited <- run([]string{
			"-addr", "127.0.0.1:0",
			"-addrfile", addrFile,
			"-scale", "0.001",
			"-cache", filepath.Join(dir, "cache"),
			"-trace", filepath.Join(dir, "trace.jsonl"),
		}, io.Discard, &errBuf, sig)
	}()

	var addr string
	deadline := time.Now().Add(15 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published its address\n%s", errBuf.String())
		}
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(data))
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	base := "http://" + addr

	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/compare", "application/json",
			strings.NewReader(`{"bench":"gzip","t":2000}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compare: %d %s", resp.StatusCode, body)
		}
		return resp, body
	}
	cold, coldBody := post()
	if cold.Header.Get("X-Inipd-Cache") != "miss" {
		t.Fatalf("cold cache header = %q", cold.Header.Get("X-Inipd-Cache"))
	}
	warm, warmBody := post()
	if warm.Header.Get("X-Inipd-Guest-Blocks") != "0" {
		t.Fatalf("warm compare executed %s blocks", warm.Header.Get("X-Inipd-Guest-Blocks"))
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("warm body differs from cold")
	}

	sig <- syscall.SIGTERM
	select {
	case code := <-exited:
		if code != 0 {
			t.Fatalf("drained daemon exited %d\n%s", code, errBuf.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain\n%s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "drained") {
		t.Fatalf("no drain confirmation:\n%s", errBuf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.jsonl")); err != nil {
		t.Fatalf("trace not published on drain: %v", err)
	}
}

// TestBadFlags: flag errors exit 2.
func TestBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag": {"-nope"},
	} {
		if code := run(args, io.Discard, io.Discard, nil); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
	}
}

// TestListenFailure: an unusable address is a clean exit 1.
func TestListenFailure(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:1"}, io.Discard, &errBuf, nil); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errBuf.String())
	}
	if errBuf.Len() == 0 {
		t.Fatal("listen failure reported nothing")
	}
}
