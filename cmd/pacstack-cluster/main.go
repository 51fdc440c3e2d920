// Command pacstack-cluster serves the multi-backend tier
// (internal/cluster) as a live fleet over HTTP: N backends behind the
// breaker-aware router, each a real serve.Server.
//
//	pacstack-cluster [-backends N] [-schemes LIST] [-seed N]
//	                 [-chaos-rate F] [-chaos-kinds LIST] [-heal N]
//	                 [-checkpoint-every N] [-workers N] [-queue N]
//	                 [-breaker-threshold N] [-failover-budget N] [-cold]
//	                 [-addr ADDR] [-timeout D] [-drain-timeout D]
//	                 [-state-dir DIR]
//
// It serves:
//
//	POST /v1/run         route one workload through the cluster
//	GET  /v1/cluster     fleet status (liveness, breakers, machines)
//	POST /v1/kill?backend=N   kill a backend: drain, migrate, re-seed
//	GET  /v1/mesh        live link state (config + up/down ruling)
//	POST /v1/mesh        replace the live link state wholesale
//	GET  /metrics /events /v1/telemetry /healthz   as in pacstack-serve
//
// With -state-dir DIR, each backend recovers its prior incarnation's
// checkpoint from DIR/backend-N at startup, and a final boot-state
// checkpoint per alive backend is committed there after the SIGTERM
// drain — the pacstack-serve durability contract, per fleet member.
//
// The deterministic fleet soaks and the chaos-mesh gate are named
// scenarios of pacstack-soak (cluster-kill, cluster-cascade,
// cluster-mesh, cluster-mesh-gate, cluster-mesh-vertical).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pacstack/internal/cluster"
	"pacstack/internal/serve"
	"pacstack/internal/snap"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pacstack-cluster: ")
	backends := flag.Int("backends", 3, "fleet width")
	schemes := flag.String("schemes", "pacstack", "comma-separated scheme list; requests round-robin across it")
	seed := flag.Int64("seed", 1, "cluster seed")
	chaosRate := flag.Float64("chaos-rate", 0.1, "per-attempt fault-injection probability")
	chaosKinds := flag.String("chaos-kinds", "", "comma-separated kinds: bitflip, retaddr, smash, register, sigframe (default retaddr,smash,sigframe)")
	heal := flag.Int("heal", 0, "supervised respawns per request after a detected kill")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "per-request snapshot commit interval in instructions (0: off)")
	workers := flag.Int("workers", 2, "workers per backend")
	queue := flag.Int("queue", 0, "per-backend queue (0: 2*workers, <0: none)")
	brThreshold := flag.Int("breaker-threshold", 8, "per-backend breaker threshold (<0: disabled)")
	failoverBudget := flag.Int("failover-budget", 1, "backend deaths the cluster absorbs with migration")
	coldDaemon := flag.Bool("cold", false, "backends boot a fresh machine per request instead of serving from warm snapshot-fork pools")
	addr := flag.String("addr", ":8438", "listen address")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline (0: none)")
	drainWait := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain deadline")
	stateDir := flag.String("state-dir", "", "per-backend on-disk snapshot stores; recovered at startup, final checkpoints committed on graceful shutdown")
	flag.Parse()

	kinds, err := serve.ParseKinds(*chaosKinds)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Backends: *backends,
		Seed:     *seed,
		Backend: serve.Config{
			Workers:         *workers,
			Queue:           *queue,
			Chaos:           *chaosRate > 0,
			ChaosRate:       *chaosRate,
			ChaosKinds:      kinds,
			Heal:            *heal,
			CheckpointEvery: *checkpointEvery,
			Timeout:         *timeout,
			Warm:            !*coldDaemon,
		},
		MachineSchemes:   strings.Split(*schemes, ","),
		BreakerThreshold: *brThreshold,
		FailoverBudget:   *failoverBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	runDaemon(cl, *addr, *drainWait, *stateDir)
}

// runDaemon serves the live fleet until SIGTERM/SIGINT, then drains
// every backend and exits with the fleet status logged. With stateDir,
// each backend recovers its prior checkpoint from DIR/backend-N before
// traffic and commits a final one after the drain — the pacstack-serve
// durability contract applied per fleet member.
func runDaemon(cl *cluster.Cluster, addr string, drainWait time.Duration, stateDir string) {
	stores := make([]*snap.Store, cl.Size())
	if stateDir != "" {
		for i := 0; i < cl.Size(); i++ {
			dir := filepath.Join(stateDir, fmt.Sprintf("backend-%d", i))
			fs, err := snap.NewDirFS(dir)
			if err != nil {
				log.Fatal(err)
			}
			st := snap.NewStore(fs)
			st.Tel = snap.NewTelemetry(cl.Telemetry().Registry())
			_, _, rep, err := st.Recover()
			switch {
			case errors.Is(err, snap.ErrNoSnapshot):
				log.Printf("state dir %s: no prior checkpoint (fresh start)", dir)
			case err != nil:
				log.Fatalf("state dir %s: recovery failed: %v", dir, err)
			default:
				log.Printf("state dir %s: recovered checkpoint seq %d (%d snapshot(s), %d anomalies)",
					dir, rep.RestoredSeq, len(rep.Snapshots), len(rep.Anomalies))
				for _, a := range rep.Anomalies {
					log.Printf("state dir anomaly: %s %s: %s", a.Kind, a.Name, a.Detail)
				}
			}
			stores[i] = st
		}
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           cl.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		st := cl.Status()
		log.Printf("listening on %s (%d backends alive)", addr, st.Alive)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("%s: draining fleet", sig)
	case err := <-errc:
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := cl.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	<-errc

	// Final checkpoints only after the drain, and only for backends
	// that are still alive — a killed backend's machines migrated away
	// and its durable record belongs to the survivor that took them.
	if stateDir != "" {
		for i := 0; i < cl.Size(); i++ {
			srv, alive := cl.Server(i)
			if !alive {
				log.Printf("backend %d: dead, no final checkpoint", i)
				continue
			}
			n, err := srv.FinalCheckpoint(stores[i])
			if err != nil {
				log.Printf("backend %d: final checkpoint incomplete after %d commit(s): %v", i, n, err)
			} else {
				log.Printf("backend %d: final checkpoint, %d scheme snapshot(s) committed", i, n)
			}
		}
	}

	out, _ := json.MarshalIndent(cl.Status(), "", "  ")
	log.Printf("final cluster status:\n%s", out)
	log.Printf("drained cleanly")
}
