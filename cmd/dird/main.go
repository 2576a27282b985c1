// Command dird runs a JAMM sensor directory server over TCP: the
// LDAP-equivalent component where sensor managers publish sensors and
// consumers look them up.
//
//	dird -addr 127.0.0.1:3890
//	dird -addr 127.0.0.1:3891 -backend snapshot   # read-optimized (stock LDAP)
//	dird -addr 127.0.0.1:3892 -replicate-from 127.0.0.1:3890   # live replica
//
// A referral (-refer "ou=site-b,o=jamm=host:port") delegates a subtree
// to another directory server, mirroring hierarchical LDAP deployments.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"jamm/internal/directory"
	"jamm/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:3890", "listen address")
	name := flag.String("name", "jamm-dir", "server name")
	backendKind := flag.String("backend", "mutable", "storage backend: mutable (write-optimized, Globus-style) or snapshot (read-optimized, stock-LDAP-style)")
	readOnly := flag.Bool("read-only", false, "serve as a read-only replica")
	replicateFrom := flag.String("replicate-from", "", "primary directory address to replicate from (implies read-only)")
	var referrals []string
	flag.Func("refer", "subtree referral as baseDN=address (repeatable)", func(v string) error { referrals = append(referrals, v); return nil })
	opsAddr := flag.String("ops-addr", "", "ops HTTP listen address serving /metrics, /healthz, /readyz, and /debug/pprof (empty = disabled)")
	flag.Parse()

	var backend directory.Backend
	switch *backendKind {
	case "mutable":
		backend = directory.NewMutableBackend()
	case "snapshot":
		backend = directory.NewSnapshotBackend()
	default:
		log.Fatalf("dird: unknown backend %q", *backendKind)
	}
	srv := directory.NewServer(*name, backend)
	srv.SetReadOnly(*readOnly)
	for _, r := range referrals {
		base, target, ok := strings.Cut(r, "=")
		if !ok {
			log.Fatalf("dird: bad referral %q (want baseDN=address)", r)
		}
		srv.AddReferral(directory.DN(base), target)
	}

	if *replicateFrom != "" {
		stop, err := directory.ReplicateFrom(srv, directory.NewClient(*name, *replicateFrom), "")
		if err != nil {
			log.Fatalf("dird: replicate from %s: %v", *replicateFrom, err)
		}
		defer stop()
		fmt.Printf("dird: replicating from %s\n", *replicateFrom)
	}
	tcp, err := directory.ServeTCP(srv, *addr, nil)
	if err != nil {
		log.Fatalf("dird: %v", err)
	}
	fmt.Printf("dird: %s serving %s backend on %s\n", *name, *backendKind, tcp.Addr())

	// Ops endpoint: liveness/readiness and pprof. The readiness check
	// round-trips a wire ping through the public listener, so /readyz
	// fails when the directory stops answering real clients.
	if *opsAddr != "" {
		health := telemetry.NewHealth()
		health.AddCheck("wire", func() error {
			return directory.NewClient(*name+"/ops", tcp.Addr()).Ping()
		})
		opsSrv, err := telemetry.ServeOps(*opsAddr, telemetry.NewRegistry(), health, nil)
		if err != nil {
			log.Fatalf("dird: %v", err)
		}
		defer opsSrv.Close()
		fmt.Printf("dird: ops endpoint on http://%s/healthz\n", opsSrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	tcp.Close()
}
