package obs

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPublishEveryFlushesAndStops(t *testing.T) {
	var mu sync.Mutex
	var samples []Progress
	sink := SinkFunc(func(p Progress) {
		mu.Lock()
		samples = append(samples, p)
		mu.Unlock()
	})
	var nodes atomic.Int64
	stop := PublishEvery(time.Millisecond, sink, func() Progress {
		return Progress{Task: "test", Nodes: nodes.Load()}
	})
	nodes.Store(42)
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent

	mu.Lock()
	defer mu.Unlock()
	if len(samples) == 0 {
		t.Fatal("no samples published")
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Fatalf("last sample not Final: %+v", last)
	}
	if last.Nodes != 42 {
		t.Fatalf("final sample Nodes = %d, want 42", last.Nodes)
	}
	for _, p := range samples[:len(samples)-1] {
		if p.Final {
			t.Fatal("non-last sample marked Final")
		}
	}
}

func TestPublishEveryNilSink(t *testing.T) {
	before := runtime.NumGoroutine()
	stop := PublishEvery(time.Millisecond, nil, func() Progress { return Progress{} })
	stop()
	// Generous settle window: no goroutine should have been started.
	time.Sleep(5 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("nil sink leaked goroutines: %d -> %d", before, after)
	}
}

func TestPublishEveryNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		stop := PublishEvery(time.Millisecond, SinkFunc(func(Progress) {}),
			func() Progress { return Progress{} })
		stop()
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("publisher goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
}

func TestLineSink(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	sink := NewLineSink(syncWriter{&mu, &buf})
	sink.Publish(Progress{
		Task: "mc", TraceID: "t1", Nodes: 100, NodesPerSec: 50,
		Depth: 7, Frontier: 3, PersistHits: 3, PersistMisses: 1,
		RowsDone: 5, RowsTotal: 10, Elapsed: 2 * time.Second, Final: true,
	})
	line := buf.String()
	for _, want := range []string{
		"task=mc", "trace=t1", "nodes=100", "nodes/s=50", "depth=7",
		"frontier=3", "persist=75.0%", "rows=5/10", "elapsed=2s", "final=true",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("line missing %q: %s", want, line)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Errorf("line not newline-terminated: %q", line)
	}

	// Zero-valued optional fields stay off the line.
	buf.Reset()
	sink.Publish(Progress{Task: "engine", Nodes: 1})
	line = buf.String()
	for _, absent := range []string{"depth=", "frontier=", "rows=", "trace=", "persist="} {
		if strings.Contains(line, absent) {
			t.Errorf("line has zero-valued field %q: %s", absent, line)
		}
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func TestRegistrySink(t *testing.T) {
	r := NewRegistry()
	sink := RegistrySink(r)
	sink.Publish(Progress{Task: "mc", Nodes: 500, NodesPerSec: 100, Depth: 6, Frontier: 2})
	if got := r.Value("rc_progress_nodes", "mc"); got != 500 {
		t.Fatalf("rc_progress_nodes = %v, want 500", got)
	}
	if got := r.Value("rc_progress_depth", "mc"); got != 6 {
		t.Fatalf("rc_progress_depth = %v, want 6", got)
	}
	sink.Publish(Progress{Task: "mc", Nodes: 900})
	if got := r.Value("rc_progress_nodes", "mc"); got != 900 {
		t.Fatalf("rc_progress_nodes after update = %v, want 900", got)
	}
}

func TestMultiSink(t *testing.T) {
	var a, b int
	MultiSink(SinkFunc(func(Progress) { a++ }), nil, SinkFunc(func(Progress) { b++ })).
		Publish(Progress{})
	if a != 1 || b != 1 {
		t.Fatalf("fan-out a=%d b=%d, want 1/1", a, b)
	}
}
