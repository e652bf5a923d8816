package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress is one sample of a long-running search's state. Producers
// fill the fields that make sense for them (mc fills depth and
// frontier, census fills rows, the engine fills persist counters);
// zero-valued fields mean "not applicable" and sinks skip them.
type Progress struct {
	// Task names the producer: "mc", "census", "engine".
	Task string
	// TraceID correlates the sample with the request or job that
	// started the search ("" for bare CLI runs).
	TraceID string
	// Nodes is the cumulative work unit count (schedule prefixes for
	// mc, classified types for census, classifications for engine).
	Nodes int64
	// NodesPerSec is the rate over the whole run so far.
	NodesPerSec float64
	// Depth is the current search depth (mc iterative deepening).
	Depth int
	// Frontier is the number of in-flight roots/branches (mc).
	Frontier int64
	// PersistHits/PersistMisses are engine persistent-store counters.
	PersistHits, PersistMisses int64
	// RowsDone/RowsTotal are census row progress (RowsTotal 0 when the
	// total is unknown).
	RowsDone, RowsTotal int64
	// Elapsed is time since the run started.
	Elapsed time.Duration
	// Final marks the flush emitted when the run finishes.
	Final bool
}

// Sink receives progress samples. Publish must be safe for concurrent
// use and must not block for long — it is called from a ticker
// goroutine inside the producing search.
type Sink interface {
	Publish(Progress)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Progress)

// Publish implements Sink.
func (f SinkFunc) Publish(p Progress) { f(p) }

// MultiSink fans one sample out to several sinks.
func MultiSink(sinks ...Sink) Sink {
	return SinkFunc(func(p Progress) {
		for _, s := range sinks {
			if s != nil {
				s.Publish(p)
			}
		}
	})
}

// NewLineSink returns a sink printing one human-readable line per
// sample to w (intended for stderr behind the CLI -progress flags).
// Lines are serialized under a mutex so concurrent producers interleave
// cleanly.
func NewLineSink(w io.Writer) Sink {
	var mu sync.Mutex
	return SinkFunc(func(p Progress) {
		var b strings.Builder
		fmt.Fprintf(&b, "progress task=%s", p.Task)
		if p.TraceID != "" {
			fmt.Fprintf(&b, " trace=%s", p.TraceID)
		}
		fmt.Fprintf(&b, " nodes=%d", p.Nodes)
		if p.NodesPerSec > 0 {
			fmt.Fprintf(&b, " nodes/s=%.0f", p.NodesPerSec)
		}
		if p.Depth > 0 {
			fmt.Fprintf(&b, " depth=%d", p.Depth)
		}
		if p.Frontier > 0 {
			fmt.Fprintf(&b, " frontier=%d", p.Frontier)
		}
		if hits, misses := p.PersistHits, p.PersistMisses; hits+misses > 0 {
			fmt.Fprintf(&b, " persist=%.1f%%", 100*float64(hits)/float64(hits+misses))
		}
		if p.RowsTotal > 0 {
			fmt.Fprintf(&b, " rows=%d/%d", p.RowsDone, p.RowsTotal)
		} else if p.RowsDone > 0 {
			fmt.Fprintf(&b, " rows=%d", p.RowsDone)
		}
		fmt.Fprintf(&b, " elapsed=%s", p.Elapsed.Round(time.Millisecond))
		if p.Final {
			b.WriteString(" final=true")
		}
		b.WriteByte('\n')
		mu.Lock()
		defer mu.Unlock()
		io.WriteString(w, b.String())
	})
}

// RegistrySink mirrors samples into rc_progress_* gauges labelled by
// task, so /metrics shows live search state without the producer
// knowing about the registry.
func RegistrySink(r *Registry) Sink {
	nodes := r.Gauge("rc_progress_nodes", "Work units completed by the in-flight search.", "task")
	rate := r.Gauge("rc_progress_nodes_per_sec", "Work rate of the in-flight search.", "task")
	depth := r.Gauge("rc_progress_depth", "Current depth of the in-flight search.", "task")
	frontier := r.Gauge("rc_progress_frontier", "In-flight branches of the current search.", "task")
	rows := r.Gauge("rc_progress_rows_done", "Census rows completed by the in-flight run.", "task")
	return SinkFunc(func(p Progress) {
		task := p.Task
		if task == "" {
			task = "unknown"
		}
		nodes.With(task).Set(float64(p.Nodes))
		rate.With(task).Set(p.NodesPerSec)
		depth.With(task).Set(float64(p.Depth))
		frontier.With(task).Set(float64(p.Frontier))
		rows.With(task).Set(float64(p.RowsDone))
	})
}

// PublishEvery starts a goroutine sampling snap every interval and
// publishing to sink. The returned stop function publishes one final
// sample (Final=true), then waits for the goroutine to exit — callers
// defer it, so a finished run always flushes and never leaks the
// goroutine. A nil sink returns a no-op stop without starting anything,
// making instrumentation free when nobody is listening.
func PublishEvery(interval time.Duration, sink Sink, snap func() Progress) (stop func()) {
	if sink == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sink.Publish(snap())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			p := snap()
			p.Final = true
			sink.Publish(p)
		})
	}
}
