package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkSubmitPoll is the manager's own round trip on a trivial
// handler: submit a distinct job, then poll it until it is done.
// Retention covers every job of the run, so no eviction is timed.
func BenchmarkSubmitPoll(b *testing.B) {
	m := New(Options{Workers: 1, Queue: 16, Retention: b.N + 1})
	defer drain(b, m)
	m.Register("noop", func(context.Context, json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info, _, err := m.Submit(ctx, "noop", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			b.Fatal(err)
		}
		for {
			got, ok := m.Get(info.ID)
			if !ok {
				b.Fatalf("job %s vanished", info.ID)
			}
			if got.State == StateDone {
				break
			}
			if got.State.Terminal() {
				b.Fatalf("job %s ended %s: %s", info.ID, got.State, got.Error)
			}
			runtime.Gosched()
		}
	}
}
