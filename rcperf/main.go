// Command rcperf is the repository benchmark. It runs one seeded
// workload in-process against the public packages (serve, engine,
// compile, atlas, census, store, mc, sim), checks every answer, and
// prints one JSON result line:
//
//	rcperf --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the measured phase runs untraced and the result
// carries the end-to-end metrics; with --trace 1 the traced pass runs
// every layer's probe on the seed's inputs and the result carries the
// per-layer metrics. DESIGN.md describes the workloads and metrics.
//
// Operations that fail, are refused or answer wrongly count in
// "failed"; any failure makes "correct" false and the exit status 1.
// Setup errors and interrupts exit non-zero without a result line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rcperf:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "rcperf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "rcperf: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workdir holds the per-run scratch directory (stores) and the span
	// dump of a traced pass.
	workdir string
	size    sizes
	// censusDigest, when set, replaces the expected census artifact
	// digest; the self-test uses it to prove a wrong answer fails the run.
	censusDigest string
}

// workloads maps each workload name to its measured phase.
var workloads = map[string]func(context.Context, *env) (metricSet, error){
	"serve-warm":  serveWarm,
	"serve-cold":  serveCold,
	"census-cold": censusCold,
	"mc-safe":     mcSafe,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("rcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: fullSizes}
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = traced per-layer pass")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for run scratch files and span dumps")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be > 0, got %g", seconds)
	}
	if trace != 0 && trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	return cfg, nil
}

// env is the state one run shares across its phases.
type env struct {
	cfg   config
	dir   string // per-run scratch directory, removed when the run ends
	tally tally
	log   io.Writer
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run executes one invocation inside a fresh scratch directory that is
// removed on every path out, including cancellation by a signal.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("create workdir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workdir, "rcperf-run-")
	if err != nil {
		return nil, fmt.Errorf("create run directory: %w", err)
	}
	defer os.RemoveAll(dir)
	e := &env{cfg: cfg, dir: dir, log: log}

	var m metricSet
	if cfg.trace {
		m, err = layers(ctx, e)
	} else {
		m, err = workloads[cfg.workload](ctx, e)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("interrupted: %w", ctx.Err())
		}
		return nil, err
	}
	attempted, failed := e.tally.attempted.Load(), e.tally.failed.Load()
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	fmt.Fprintf(log, "rcperf: %s seed=%d trace=%v attempted=%d failed=%d fail_frac=%g\n",
		cfg.workload, cfg.seed, cfg.trace, attempted, failed, float64(failed)/float64(attempted))
	for _, msg := range e.tally.messages() {
		fmt.Fprintln(log, "rcperf: FAIL", msg)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// tally counts checked operations: every request, census run, model
// check or replayed call passes or fails exactly once.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

// maxFailureMessages bounds the failures echoed to standard error.
const maxFailureMessages = 10

func (t *tally) pass() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.msgs) < maxFailureMessages {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// judge records err as a failure of the named operation, or a pass.
func (t *tally) judge(op string, err error) {
	if err != nil {
		t.fail("%s: %v", op, err)
		return
	}
	t.pass()
}

func (t *tally) messages() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.msgs...)
}
