// Command rcload is the SLO harness for rcserve: it drives a mixed
// GET/POST/batch workload (or a single-route one) at a target rate and
// reports throughput plus tail latency (p50/p99/p999) so serving
// regressions show up as numbers, not anecdotes. The same traffic
// engine (internal/load) backs the CI smoke job.
//
// Usage:
//
//	rcload -url http://127.0.0.1:8372                  # 5s mixed, human summary
//	rcload -url ... -workload batch -requests 500      # fixed budget
//	rcload -url ... -rps 200 -duration 30s -json       # paced, machine output
//	rcload -url ... -probe-coalesce 16                 # concurrent-identical-GET check
//
// Exit codes: 0 ok, 1 flag/run error, 2 the run saw request errors
// (HTTP failures or unexpected statuses; 429/503 are reported but are
// expected outcomes against a rate-limited server and do not fail).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"rcons/internal/load"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout))
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rcload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		url         = fs.String("url", "http://127.0.0.1:8372", "base URL of the rcserve under test")
		duration    = fs.Duration("duration", 5*time.Second, "run length (ignored when -requests is set)")
		requests    = fs.Int("requests", 0, "fixed request budget instead of -duration")
		rps         = fs.Float64("rps", 0, "target request rate across all workers (0 = unpaced)")
		concurrency = fs.Int("concurrency", 8, "worker goroutines")
		workload    = fs.String("workload", "mixed", "request mix: mixed, single or batch")
		batchSize   = fs.Int("batch", 50, "items per batch request")
		typePool    = fs.Int("types", 100, "size of the generated type pool (built-ins + seeded custom tables)")
		limit       = fs.Int("limit", 3, "classification limit parameter")
		seed        = fs.Int64("seed", 1, "seed for the type pool and request sequence")
		jsonOut     = fs.Bool("json", false, "emit the result as JSON instead of a human summary")
		trace       = fs.Bool("trace", false, "stamp each request with a client-minted X-RC-Trace ID and report the slowest requests' trace IDs")
		probe       = fs.Int("probe-coalesce", 0, "instead of a load run, fire N concurrent identical GETs at /v1/zoo and verify byte-identical bodies")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *probe > 0 {
		probeURL := *url + "/v1/zoo?limit=" + strconv.Itoa(*limit)
		okBodies, err := load.CoalesceProbe(ctx, nil, probeURL, *probe)
		if err != nil {
			fmt.Fprintf(stdout, "rcload: coalesce probe: %v (%d/%d ok)\n", err, okBodies, *probe)
			return 2
		}
		fmt.Fprintf(stdout, "coalesce probe: %d/%d concurrent GETs of %s returned byte-identical bodies\n",
			okBodies, *probe, probeURL)
		return 0
	}

	res, err := load.Run(ctx, load.Options{
		BaseURL:     *url,
		Duration:    *duration,
		Requests:    *requests,
		RPS:         *rps,
		Concurrency: *concurrency,
		Workload:    *workload,
		BatchSize:   *batchSize,
		Types:       *typePool,
		Limit:       *limit,
		Seed:        *seed,
		Trace:       *trace,
	})
	if err != nil {
		fmt.Fprintf(stdout, "rcload: %v\n", err)
		return 1
	}

	if *jsonOut {
		if err := writeJSON(stdout, res); err != nil {
			fmt.Fprintf(stdout, "rcload: %v\n", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "workload %-6s  %6.2fs  %d requests (%d errors, %d limited, %d shed)\n",
			res.Workload, res.Duration, res.Requests, res.Errors, res.Limited, res.Shed)
		fmt.Fprintf(stdout, "  throughput  %10.1f req/s  %10.1f items/s\n", res.Throughput, res.ItemsPerSec)
		fmt.Fprintf(stdout, "  latency     p50 %s  p99 %s  p999 %s\n",
			fmtSecs(res.P50), fmtSecs(res.P99), fmtSecs(res.P999))
		for i, wt := range res.Worst {
			if i == 0 {
				fmt.Fprintf(stdout, "  slowest traces (GET /debug/requests/{trace} on the server):\n")
			}
			fmt.Fprintf(stdout, "    %-20s %s\n", wt.Trace, fmtSecs(wt.Seconds))
		}
	}
	if res.Errors > 0 {
		fmt.Fprintf(stdout, "rcload: %d request errors\n", res.Errors)
		return 2
	}
	return 0
}

func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

func writeJSON(w io.Writer, res *load.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
