// Command dseserve is the campaign service: a long-running HTTP
// front-end over the staged campaign engine. Campaigns are submitted
// as JSON specs and run as durable jobs — checkpointed per cell,
// sharing one evaluation store and one rendered-sequence cache across
// all tenants — so no configuration is ever simulated twice and a
// restarted server resumes interrupted jobs from their checkpoints.
//
//	dseserve -data /var/lib/dseserve -addr :8080
//
// API:
//
//	POST /campaigns              submit a spec (idempotent by content)
//	GET  /campaigns/{id}         status + per-cell progress
//	GET  /campaigns/{id}/events  SSE stream of stage/cell transitions
//	GET  /campaigns/{id}/report  ?format=json|csv|table
//	POST /campaigns/{id}/cancel  cooperative checkpoint-clean cancel
//	GET  /healthz                liveness, job counts, heap stats
//	GET  /debug/pprof/           standard profiling surface
//
// SIGTERM/SIGINT drain gracefully: new submissions are refused,
// in-flight cells finish and checkpoint, then the process exits; the
// next start resumes the interrupted jobs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"slamgo/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port with -addr-file)")
		data         = flag.String("data", "", "data directory: per-job checkpoints under jobs/, plus the shared evaluation store and sequence cache in the layout of a cmd/experiments -campaign-store root (required)")
		jobs         = flag.Int("jobs", 2, "campaigns running concurrently; excess submissions queue in order")
		accessLog    = flag.String("access-log", "-", "access log destination: a file path, \"-\" for stderr, or \"off\"")
		addrFile     = flag.String("addr-file", "", "write the bound listen address to this file once serving (readiness signal for scripts)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Minute, "maximum time to wait for in-flight cells to checkpoint on shutdown")
	)
	flag.Parse()
	if *data == "" {
		fatal(errors.New("-data is required"))
	}

	logger := log.New(os.Stderr, "[dseserve] ", log.LstdFlags)

	var accessOut *os.File
	switch *accessLog {
	case "off":
	case "-":
		accessOut = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		accessOut = f
	}

	m, err := serve.NewManager(*data, *jobs, logger.Printf)
	if err != nil {
		fatal(err)
	}
	resumed, err := m.Resume()
	if err != nil {
		fatal(err)
	}
	if resumed > 0 {
		logger.Printf("resumed %d interrupted job(s) from %s", resumed, *data)
	}

	// A nil *os.File must become a nil interface, or the logger would
	// dereference a typed nil on its first request.
	var accessWriter io.Writer
	if accessOut != nil {
		accessWriter = accessOut
	}
	var handler http.Handler = serve.NewServer(m, accessWriter)
	srv := &http.Server{
		Handler: handler,
		// Per-request hygiene: slow headers are cut fast, idle keep-alive
		// connections are reaped, but there is no global write deadline —
		// SSE streams live as long as their campaigns.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Printf("serving on %s (data %s, %d concurrent jobs)", ln.Addr(), *data, *jobs)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Printf("%s: draining (in-flight cells finish and checkpoint)", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Drain order matters: refuse new work and stop the campaigns first
	// (jobs reach a terminal state, which ends their SSE streams), then
	// shut the HTTP server down — Shutdown waits for active handlers,
	// and by now none of them can block indefinitely.
	drained := make(chan struct{})
	go func() { m.Drain(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(*drainTimeout):
		logger.Printf("drain timeout after %s; exiting with jobs still checkpointing", *drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("drained; bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dseserve:", err)
	os.Exit(1)
}
