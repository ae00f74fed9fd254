// Command aedb-tuned serves the tuning service: a long-running HTTP/JSON
// API that runs named AEDB tuning studies (AEDB-MLS or NSGA-II), shards
// each study's trials across worker goroutines, and merges the per-trial
// fronts deterministically — an N-worker study's final front is
// bit-identical to a 1-worker run of the same spec.
//
// Usage:
//
//	aedb-tuned [-addr 127.0.0.1:8844] [-checkpoint-dir DIR]
//	           [-workers N] [-save-every 1] [-port-file FILE]
//
// Endpoints: POST /studies, GET /studies, GET /studies/{name},
// GET /studies/{name}/front (NDJSON), POST /studies/{name}/pause,
// POST /studies/{name}/resume, POST /studies/{name}/stop, GET /healthz.
//
// With -checkpoint-dir the service registers every accepted study in a
// crash-safe manifest and checkpoints study state at merge boundaries;
// a killed server restarted on the same directory resumes every
// unfinished study and lands on the same final fronts. SIGINT/SIGTERM
// shut down gracefully (in-flight trials finish their boundary and
// checkpoint; a second signal exits immediately).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"

	"aedbmls/internal/cliutil"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/tuneserver"
)

func main() {
	cliutil.SetUsage("aedb-tuned",
		"Serve the AEDB tuning service: named studies over HTTP/JSON, trials\n"+
			"sharded across a worker pool into one deterministically merged Pareto\n"+
			"archive per study, crash-safe under -checkpoint-dir.")
	addr := flag.String("addr", "127.0.0.1:8844", "listen address (host:port; port 0 picks a free port)")
	dir := flag.String("checkpoint-dir", "", "directory for the study manifest and checkpoints (empty: in-memory only)")
	workers := flag.Int("workers", 0, "trial worker goroutines per study (0 = GOMAXPROCS; never changes results)")
	saveEvery := flag.Int("save-every", 1, "merged trials between checkpoint saves")
	portFile := flag.String("port-file", "", "publish the bound address to this file once listening")
	flag.Parse()
	if _, err := faultinject.ConfigureFromEnv(); err != nil {
		log.Fatal(err)
	}
	stop := cliutil.StopOnSignals(*dir != "")

	opts := tuneserver.Options{Dir: *dir, Workers: *workers, SaveEvery: *saveEvery}
	ready := func(a net.Addr) {
		fmt.Printf("aedb-tuned listening on %s\n", a)
		if *portFile != "" {
			if err := cliutil.WriteReadyFile(*portFile, a.String()); err != nil {
				fmt.Fprintf(os.Stderr, "cannot publish address: %v\n", err)
			}
		}
	}
	if err := tuneserver.Serve(*addr, opts, stop, ready); err != nil {
		log.Fatal(err)
	}
}
