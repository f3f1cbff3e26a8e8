// Command salsa-server hosts one SALSA shard behind the wire protocol of
// internal/remote: a TCP listener where producers lease insertion lanes
// and workers join as consumers, plus an HTTP listener exposing the
// standard telemetry surface (/metrics, /metrics.json) and — when the
// flight recorder is armed with -flight — /debug/flight black-box dumps.
//
// A cluster is just N independent salsa-server processes; the client
// router (cmd/salsa-worker -produce, or remote.DialProducer in code)
// spreads load across them and spills on SATURATED backpressure. Shards
// share nothing and never talk to each other.
//
// Usage:
//
//	salsa-server [-addr host:port] [-http host:port] [-lanes n] [-house n]
//	             [-max-workers n] [-chunk n] [-lease d] [-auth-token s]
//	             [-flight] [-quiet]
//
//	salsa-server -smoke [-smoke-tasks n]
//
//	salsa-server -quiesce -addr host:port [-quiesce-peer host:port]
//	             [-auth-token s]
//
// -smoke runs the self-contained serve-smoke gate (boot a shard on
// loopback, drive a full exactly-once round with a mid-stream worker
// drain/rejoin, scrape /metrics) and exits non-zero on any violation;
// `make serve-smoke` and CI use it as the end-to-end check that the
// service stack works on a real network path.
//
// -quiesce is the admin mode: instead of hosting a shard it asks the
// shard at -addr to drain itself into -quiesce-peer (fence producers,
// retire workers, hand residual tasks to the peer exactly once) and
// exits 0 with the handoff count once the shard is drained. With no
// peer the drain only succeeds on an empty shard. -auth-token must
// match the target shard's token.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"salsa/internal/chaos"
	"salsa/internal/flight"
	"salsa/internal/remote"
	"salsa/internal/telemetry"
)

func main() {
	var (
		addr           = flag.String("addr", "127.0.0.1:7400", "TCP address for the wire protocol")
		httpAddr       = flag.String("http", "127.0.0.1:7401", "HTTP address for telemetry (/metrics, /metrics.json, /debug/flight)")
		lanes          = flag.Int("lanes", 4, "producer insertion lanes (wire producers lease one each)")
		house          = flag.Int("house", 1, "house consumers kept in-process (>=1; they anchor stealing while no workers are joined)")
		maxWorkers     = flag.Int("max-workers", 64, "max concurrently joined wire workers")
		chunk          = flag.Int("chunk", 0, "chunk size (0 = pool default)")
		lease          = flag.Duration("lease", 3*time.Second, "worker lease: a connection silent this long is declared crashed")
		authToken      = flag.String("auth-token", "", "shared secret every HELLO/QUIESCE must carry (empty = open shard)")
		armFlight      = flag.Bool("flight", false, "arm the flight recorder (serves dumps at /debug/flight)")
		quiet          = flag.Bool("quiet", false, "suppress per-session log lines")
		smoke          = flag.Bool("smoke", false, "run the serve-smoke gate and exit")
		smokeTasks     = flag.Int("smoke-tasks", 0, "serve-smoke round size (0 = default)")
		quiesce        = flag.Bool("quiesce", false, "admin mode: drain the shard at -addr into -quiesce-peer and exit")
		quiescePeer    = flag.String("quiesce-peer", "", "handoff peer for -quiesce (empty = drain must find the shard empty)")
		quiesceTimeout = flag.Duration("quiesce-timeout", 90*time.Second, "client-side bound on the -quiesce drain")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	log.SetPrefix("salsa-server: ")

	if *smoke {
		h := &chaos.Harness{Name: "serve-smoke", Rounds: 1, FlightDir: "results",
			Replay: func(*chaos.Cell) string { return "go run ./cmd/salsa-server -smoke" }}
		os.Exit(h.Run([]chaos.Scenario{{}}, func(c *chaos.Cell) (string, error) {
			return "", remote.RunSmoke(remote.SmokeOptions{
				Tasks:      *smokeTasks,
				FlightDump: c.FlightDump,
				Logf:       log.Printf,
			})
		}))
	}

	if *quiesce {
		moved, err := remote.Quiesce(*addr, *quiescePeer, *authToken, *quiesceTimeout)
		if err != nil {
			log.Fatalf("quiesce %s: %v", *addr, err)
		}
		log.Printf("quiesced %s: %d tasks handed off to %q", *addr, moved, *quiescePeer)
		return
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *armFlight {
		if !flight.Compiled {
			log.Fatal("-flight: binary built with salsa_noflight")
		}
		flight.Enable(flight.Options{
			Consumers: *house + *maxWorkers,
			Producers: *lanes,
			RingSize:  flight.DefaultRingSize,
		})
	}

	srv, err := remote.NewServer(*addr, remote.Options{
		Lanes:        *lanes,
		House:        *house,
		MaxWorkers:   *maxWorkers,
		ChunkSize:    *chunk,
		LeaseTimeout: *lease,
		AuthToken:    *authToken,
		Logf:         logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	ms, err := telemetry.Serve(*httpAddr, srv.Handler())
	if err != nil {
		srv.Close()
		log.Fatal(err)
	}
	log.Printf("shard up: wire %s, metrics http://%s/metrics (lanes=%d house=%d max-workers=%d lease=%v)",
		srv.Addr(), ms.Addr(), *lanes, *house, *maxWorkers, *lease)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintln(os.Stderr)
	log.Printf("%v: shutting down", s)
	ms.Close()
	srv.Close()
}
