// Command daas-server runs the autoscaler as a service: a long-running
// HTTP daemon that ingests per-tenant telemetry snapshots, drives each
// tenant's control loop, and persists every decision and billing
// line-item to an append-only, checksummed ledger (one file per tenant
// under -ledger-dir).
//
// API:
//
//	POST /v1/tenants/{id}/telemetry   ingest snapshots (idempotent by seq)
//	GET  /v1/tenants/{id}/decisions   replay the decision trail [?since=N&limit=N]
//	GET  /v1/tenants/{id}/bill        replay the billing line-items
//	GET  /healthz                     liveness (reports quarantined tenants)
//	GET  /metrics                     ingest/decision/ledger/storage counters
//
// SIGINT/SIGTERM drains gracefully: in-flight requests finish, every
// tenant's reorder buffer is flushed through its loop, and every ledger
// is synced and closed. A restarted server resumes each tenant's ingest
// watermark from its ledger.
//
// Storage faults never turn into wrong answers: a tenant whose ledger
// write or fsync fails is quarantined and its ingests refused with 503 +
// Retry-After until a recovery probe (seal the bad segment, rotate to a
// fresh one) succeeds. The -fault-* flags deterministically inject such
// faults into the daemon's own filesystem layer — they exist for the
// crash-restart CI harness and for operator drills, never for production.
//
// Usage:
//
//	daas-server [-addr :8080] [-ledger-dir DIR] [-goal-ms G]
//	            [-reorder-window N] [-rate R] [-burst B] [-sync-every N]
//	            [-max-tenants N] [-probe-interval D]
//	            [-fault-kind eio|enospc|short|powercut|mix] [-fault-rate P]
//	            [-fault-start N] [-fault-count N] [-fault-seed S]
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"daasscale/internal/diskfaults"
	"daasscale/internal/fsio"
	"daasscale/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daas-server: ")
	addr := flag.String("addr", ":8080", "listen address")
	ledgerDir := flag.String("ledger-dir", "ledgers", "directory for per-tenant decision ledgers")
	goalMs := flag.Float64("goal-ms", serve.DefaultGoalMs, "P95 latency goal handed to each tenant's auto-scaler")
	reorderWindow := flag.Int("reorder-window", serve.DefaultReorderWindow, "max out-of-order snapshots buffered per tenant before gaps are decided as withheld")
	rate := flag.Float64("rate", 0, "per-tenant ingest rate limit in snapshots/sec (0 = unlimited)")
	burst := flag.Int("burst", serve.DefaultBurst, "rate-limiter bucket size")
	syncEvery := flag.Int("sync-every", 1, "ledger group-commit stride: fsync every N records (1 = every record; <0 = once per ingest request)")
	maxTenants := flag.Int("max-tenants", 0, "cap on concurrently served tenants (0 = unlimited)")
	probeInterval := flag.Duration("probe-interval", serve.DefaultProbeInterval, "pacing between a quarantined tenant's recovery probes (also the 503 Retry-After hint)")
	faultKind := flag.String("fault-kind", "", "inject storage faults of this kind (eio, enospc, short, powercut, mix); empty = real disk, no injection")
	faultRate := flag.Float64("fault-rate", 0, "probability each filesystem op faults (used when -fault-count is 0)")
	faultStart := flag.Int64("fault-start", 0, "first filesystem op index the fault window covers")
	faultCount := flag.Int64("fault-count", 0, "number of ops in the fault window (<0 = every op from -fault-start on; 0 = use -fault-rate)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for rate-mode fault decisions")
	flag.Parse()

	fs := fsio.OS
	if *faultKind != "" {
		kind, err := diskfaults.KindFromString(*faultKind)
		if err != nil {
			log.Fatal(err)
		}
		fs = diskfaults.Wrap(fsio.OS, diskfaults.Plan{
			Kind:  kind,
			Start: *faultStart,
			Count: *faultCount,
			Rate:  *faultRate,
			Seed:  *faultSeed,
		})
		log.Printf("storage fault injection armed: kind=%s start=%d count=%d rate=%g", kind, *faultStart, *faultCount, *faultRate)
	}

	srv, err := serve.New(serve.Config{
		LedgerDir:     *ledgerDir,
		GoalMs:        *goalMs,
		ReorderWindow: *reorderWindow,
		RatePerSec:    *rate,
		Burst:         *burst,
		SyncEvery:     *syncEvery,
		MaxTenants:    *maxTenants,
		ProbeInterval: *probeInterval,
		FS:            fs,
	})
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("shutdown signal received, draining")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
	}()

	log.Printf("listening on %s (ledgers in %s)", *addr, *ledgerDir)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// HTTP is quiesced; flush every tenant pipeline and close the ledgers.
	if err := srv.Close(); err != nil {
		log.Fatalf("drain: %v", err)
	}
	log.Printf("drained cleanly")
}
