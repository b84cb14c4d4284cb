// mixnet-serve is the long-running what-if query service: it answers
// iteration-time, network-cost and failure-drill queries over HTTP/JSON
// through the same calls the batch CLIs make, one fresh engine per answer,
// and replays fully identical queries from a result cache.
//
// Usage:
//
//	mixnet-serve -addr :8077                  # serve until SIGINT/SIGTERM
//	mixnet-serve -selftest                    # validate + load-drive, write BENCH_serve.json
//	mixnet-serve -selftest -bench-out out.json -window 500ms
//
// Query examples:
//
//	curl -s localhost:8077/v1/iter -d '{"fabric":"fat-tree","iterations":3,"seed":1}'
//	curl -s localhost:8077/v1/failure -d '{"scenario":"fail-nic","fabric":"mixnet"}'
//	curl -s localhost:8077/v1/cost -d '{"fabric":"mixnet","servers":64,"gbps":400}'
//	curl -s localhost:8077/v1/stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mixnet/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8077", "listen address")
		workers  = flag.Int("workers", 8, "max concurrently executing queries")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-query execution timeout")
		selftest = flag.Bool("selftest", false, "run the validation + load driver instead of serving")
		benchOut = flag.String("bench-out", "BENCH_serve.json", "selftest report path")
		window   = flag.Duration("window", time.Second, "selftest throughput window per client count")
	)
	flag.Parse()

	if *selftest {
		report, err := serve.Selftest(serve.BenchOptions{Window: *window}, os.Stderr)
		if report != nil {
			if werr := writeJSON(*benchOut, report); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *benchOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	srv := serve.New(serve.Options{Workers: *workers, Timeout: *timeout})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mixnet-serve listening on %s (%d workers, %v timeout)\n", *addr, *workers, *timeout)

	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "mixnet-serve: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		srv.Drain()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
