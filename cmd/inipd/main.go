// Command inipd serves single comparisons of the study pipeline — one
// benchmark at one threshold — as a long-running HTTP/JSON daemon, with
// Prometheus metrics and health/readiness probes (see internal/serve
// for the endpoint contract). Full-suite studies are inipstudy's job.
//
// Usage:
//
//	inipd -addr 127.0.0.1:8077 -scale 0.01 -cache results.cache
//	inipd -addr 127.0.0.1:0 -addrfile addr.txt    # pick a free port, publish it
//
// One daemon owns the machine's comparison resources: a shared bounded
// scheduler, an optional content-addressed result cache (warm compares
// execute zero guest blocks, and a restarted daemon over the same
// -cache answers warm too), and a server-lifetime flight recorder.
// SIGTERM/SIGINT drains gracefully: new work is refused and every
// running comparison finishes, so its result reaches the cache and its
// trace events the recorder.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/atomicio"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers.
const readHeaderTimeout = 10 * time.Second

// run is main with its environment made explicit for the tests and the
// CI smoke: args, output streams, and the shutdown-signal channel.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("inipd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free one)")
		addrFile = fs.String("addrfile", "", "write the bound address to this file once listening (for scripts using port 0)")
		scale    = fs.Float64("scale", 1.0, "default paper-unit scale for requests that do not set one")
		workers  = fs.Int("workers", 0, "shared worker-pool size (default: GOMAXPROCS)")
		inflight = fs.Int("maxinflight", 0, "max concurrently-executing compare requests (default: 2x workers)")
		queue    = fs.Int("maxqueue", 0, "max compare requests waiting for a slot before 429 (default: 8)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "default per-request deadline")
		cacheDir = fs.String("cache", "", "content-addressed result cache directory (warm compares execute zero guest blocks)")
		trace    = fs.String("trace", "", "write a server-lifetime flight-recorder trace (JSONL) to this file on shutdown")
		drainFor = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight work")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := serve.Config{
		Scale:          *scale,
		Workers:        *workers,
		MaxInflight:    *inflight,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
	}
	if *cacheDir != "" {
		store, err := resultcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintf(stderr, "inipd: %v\n", err)
			return 1
		}
		cfg.Cache = store
	}
	var traceOut *atomicio.File
	if *trace != "" {
		atomicio.SweepTempsFor(*trace)
		f, err := atomicio.Create(*trace)
		if err != nil {
			fmt.Fprintf(stderr, "inipd: %v\n", err)
			return 1
		}
		traceOut = f
		cfg.Trace = obs.NewRecorder(f)
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "inipd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "inipd: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		atomicio.SweepTempsFor(*addrFile)
		if err := atomicio.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(stderr, "inipd: %v\n", err)
			ln.Close()
			return 1
		}
	}
	// A client that never finishes its request headers must not pin a
	// connection forever; bodies are bounded by the handlers.
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "inipd: listening on %s\n", bound)

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "inipd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stderr, "inipd: %v — draining (in-flight work finishes)\n", s)
	}

	// Drain order matters: stop admitting and wait out every compare
	// flight first (including those whose callers already timed out),
	// then let the HTTP server wait out in-flight handlers, then close
	// the trace — late emitters after the recorder closes are the
	// counted no-ops the obs close gate guarantees.
	code := 0
	if err := srv.Drain(*drainFor); err != nil {
		fmt.Fprintf(stderr, "inipd: %v\n", err)
		code = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "inipd: shutdown: %v\n", err)
		code = 1
	}
	if cfg.Trace != nil {
		dropped, cerr := cfg.Trace.Close()
		if cerr == nil {
			cerr = traceOut.Commit()
		} else {
			traceOut.Close()
		}
		if cerr != nil {
			fmt.Fprintf(stderr, "inipd: trace: %v\n", cerr)
			code = 1
		} else {
			fmt.Fprintf(stderr, "inipd: wrote %s (%d events dropped)\n", *trace, dropped)
		}
	}
	fmt.Fprintln(stderr, "inipd: drained")
	_ = stdout
	return code
}
