package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/store"
)

// waitState polls until the job reaches a terminal state (or the given
// one) and returns its snapshot.
func waitState(t *testing.T, m *Manager, id string, want State) Info {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if info.State == want || (want.Terminal() && info.State.Terminal()) {
			return info
		}
		time.Sleep(time.Millisecond)
	}
	info, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s (want %s)", id, info.State, want)
	return Info{}
}

func drain(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("drain: %v", err)
	}
}

// TestJobLifecycle is the lifecycle table test: one scenario per row,
// covering submit→poll→result, duplicate-submit coalescing, cancel
// while queued and cancel mid-run, failure, and unknown kinds.
func TestJobLifecycle(t *testing.T) {
	type row struct {
		name string
		run  func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{})
	}
	rows := []row{
		{"submit-poll-result", func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{}) {
			close(release)
			info, existing, err := m.Submit(context.Background(), "echo", json.RawMessage(`{"x": 7}`))
			if err != nil || existing {
				t.Fatalf("submit: %+v existing=%v err=%v", info, existing, err)
			}
			if info.State != StateQueued && info.State != StateRunning && info.State != StateDone {
				t.Fatalf("fresh job in state %s", info.State)
			}
			got := waitState(t, m, info.ID, StateDone)
			if got.State != StateDone || string(got.Result) != `{"echo":{"x":7}}` {
				t.Fatalf("result: %+v", got)
			}
			if got.Started == nil || got.Finished == nil {
				t.Fatalf("timestamps missing: %+v", got)
			}
		}},
		{"duplicate-submit-coalesces", func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{}) {
			// The handler blocks until released, so every duplicate lands
			// while the first execution is still in flight.
			a, existing, err := m.Submit(context.Background(), "gated", json.RawMessage(`{"q": 1}`))
			if err != nil || existing {
				t.Fatalf("first submit: existing=%v err=%v", existing, err)
			}
			// Same parameters, different formatting: same job.
			b, existing, err := m.Submit(context.Background(), "gated", json.RawMessage("{ \"q\" : 1 }"))
			if err != nil || !existing || b.ID != a.ID {
				t.Fatalf("duplicate not coalesced: %s vs %s (existing=%v err=%v)", b.ID, a.ID, existing, err)
			}
			close(release)
			waitState(t, m, a.ID, StateDone)
			// Coalescing after completion too: the retained result answers.
			c, existing, err := m.Submit(context.Background(), "gated", json.RawMessage(`{"q":1}`))
			if err != nil || !existing || c.State != StateDone {
				t.Fatalf("post-completion submit: %+v existing=%v err=%v", c, existing, err)
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("coalesced job executed %d times", n)
			}
		}},
		{"cancel-mid-run", func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{}) {
			info, _, err := m.Submit(context.Background(), "hang", nil)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, info.ID, StateRunning)
			got, err := m.Cancel(info.ID)
			if err != nil {
				t.Fatalf("cancel: %v", err)
			}
			if got.State != StateRunning && got.State != StateCancelled {
				t.Fatalf("state right after cancel: %s", got.State)
			}
			final := waitState(t, m, info.ID, StateCancelled)
			if final.State != StateCancelled || final.Result != nil {
				t.Fatalf("cancelled job: %+v", final)
			}
			// Cancelling again is a no-op; cancelling done work errors.
			if _, err := m.Cancel(info.ID); err != nil {
				t.Fatalf("re-cancel of cancelled job: %v", err)
			}
		}},
		{"failure-recorded", func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{}) {
			info, _, err := m.Submit(context.Background(), "fail", nil)
			if err != nil {
				t.Fatal(err)
			}
			got := waitState(t, m, info.ID, StateFailed)
			if got.State != StateFailed || got.Error != "deliberate failure" || got.Result != nil {
				t.Fatalf("failed job: %+v", got)
			}
			if _, err := m.Cancel(info.ID); !errors.Is(err, ErrTerminal) {
				t.Fatalf("cancel of failed job: %v", err)
			}
			// Resubmission of failed work re-runs under the same ID.
			again, existing, err := m.Submit(context.Background(), "fail", nil)
			if err != nil || existing || again.ID != info.ID {
				t.Fatalf("failed-job resubmit: %+v existing=%v err=%v", again, existing, err)
			}
			waitState(t, m, again.ID, StateFailed)
			if n := runs.Load(); n != 2 {
				t.Fatalf("failed job re-ran %d times, want 2", n)
			}
		}},
		{"unknown-kind", func(t *testing.T, m *Manager, runs *atomic.Int64, release chan struct{}) {
			if _, _, err := m.Submit(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownKind) {
				t.Fatalf("unknown kind: %v", err)
			}
			if _, _, err := m.Submit(context.Background(), "echo", json.RawMessage(`{broken`)); err == nil {
				t.Fatal("invalid params accepted")
			}
			if _, ok := m.Get("jdeadbeef"); ok {
				t.Fatal("phantom job found")
			}
			if _, err := m.Cancel("jdeadbeef"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("cancel of phantom: %v", err)
			}
		}},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			var runs atomic.Int64
			release := make(chan struct{})
			m := New(Options{Workers: 2, Queue: 8})
			m.Register("echo", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
				runs.Add(1)
				canon, _ := canonicalJSON(p)
				return json.RawMessage(fmt.Sprintf(`{"echo":%s}`, canon)), nil
			})
			m.Register("gated", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
				runs.Add(1)
				select {
				case <-release:
					return json.RawMessage(`{"ok":true}`), nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			})
			m.Register("hang", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
				runs.Add(1)
				<-ctx.Done()
				return nil, ctx.Err()
			})
			m.Register("fail", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
				runs.Add(1)
				return nil, errors.New("deliberate failure")
			})
			defer drain(t, m)
			tc.run(t, m, &runs, release)
		})
	}
}

func TestDeterministicIDs(t *testing.T) {
	a, err := ID("census", json.RawMessage(`{"states": 2, "ops": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ID("census", json.RawMessage("{\"ops\":3,  \"states\":2}"))
	if err != nil || a != b {
		t.Fatalf("key order / whitespace changed the ID: %s vs %s (%v)", a, b, err)
	}
	c, _ := ID("census", json.RawMessage(`{"states":2,"ops":4}`))
	if a == c {
		t.Fatal("different params share an ID")
	}
	d, _ := ID("mc", json.RawMessage(`{"states":2,"ops":3}`))
	if a == d {
		t.Fatal("different kinds share an ID")
	}
	if _, err := ID("census", json.RawMessage(`{bad`)); err == nil {
		t.Fatal("invalid JSON got an ID")
	}
	nil1, _ := ID("census", nil)
	nil2, _ := ID("census", json.RawMessage(`null`))
	if nil1 != nil2 {
		t.Fatal("nil and null params differ")
	}
}

func TestQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	m := New(Options{Workers: 1, Queue: 1})
	m.Register("hang", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	defer func() { close(block); drain(t, m) }()

	first, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":0}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	if _, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":1}`)); err != nil {
		t.Fatalf("queue slot 1: %v", err)
	}
	if _, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":2}`)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull queue: %v", err)
	}
	if st := m.Stats(); st.Queued != 1 || st.Running != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRetentionEviction(t *testing.T) {
	m := New(Options{Workers: 1, Queue: 32, Retention: 3})
	m.Register("echo", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	defer drain(t, m)
	var ids []string
	for i := 0; i < 8; i++ {
		info, _, err := m.Submit(context.Background(), "echo", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		waitState(t, m, info.ID, StateDone)
	}
	if st := m.Stats(); st.Evicted != 5 {
		t.Fatalf("evictions: %+v", st)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest job survived retention")
	}
	if _, ok := m.Get(ids[7]); !ok {
		t.Fatal("newest job evicted")
	}
	if got := len(m.List()); got != 3 {
		t.Fatalf("listing has %d jobs, want 3", got)
	}
}

func TestListOrderAndStripping(t *testing.T) {
	m := New(Options{Workers: 1, Queue: 8})
	m.Register("echo", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"big":"payload"}`), nil
	})
	defer drain(t, m)
	var ids []string
	for i := 0; i < 3; i++ {
		info, _, err := m.Submit(context.Background(), "echo", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		waitState(t, m, info.ID, StateDone)
	}
	list := m.List()
	if len(list) != 3 || list[0].ID != ids[2] || list[2].ID != ids[0] {
		t.Fatalf("listing order: %+v", list)
	}
	for _, info := range list {
		if info.Params != nil || info.Result != nil {
			t.Fatalf("listing leaks payloads: %+v", info)
		}
	}
}

// TestStoreRoundTrip is the restart-dedup acceptance at the manager
// level: a second manager on the same store answers a duplicate
// submission from disk, without re-running the handler.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	handler := func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		runs.Add(1)
		return json.RawMessage(`{"answer":42}`), nil
	}
	m1 := New(Options{Workers: 1, Store: st})
	m1.Register("census", handler)
	info, _, err := m1.Submit(context.Background(), "census", json.RawMessage(`{"limit":3}`))
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m1, info.ID, StateDone)
	drain(t, m1)

	// "Restart": fresh manager, fresh store handle, same directory.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{Workers: 1, Store: st2})
	m2.Register("census", handler)
	defer drain(t, m2)
	again, existing, err := m2.Submit(context.Background(), "census", json.RawMessage(`{ "limit": 3 }`))
	if err != nil {
		t.Fatal(err)
	}
	if !existing || !again.FromStore || again.State != StateDone || again.ID != info.ID {
		t.Fatalf("restart submit not served from store: %+v existing=%v", again, existing)
	}
	if string(again.Result) != string(done.Result) {
		t.Fatalf("stored result differs: %s vs %s", again.Result, done.Result)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times across restart, want 1", n)
	}
	// A different kind must not be answered by that entry even if the
	// params digest happens to be probed.
	m2.Register("other", handler)
	fresh, existing, err := m2.Submit(context.Background(), "other", json.RawMessage(`{"limit":3}`))
	if err != nil || existing {
		t.Fatalf("cross-kind store hit: %+v existing=%v err=%v", fresh, existing, err)
	}
}

func TestDrainGraceful(t *testing.T) {
	m := New(Options{Workers: 1, Queue: 8})
	started := make(chan struct{}, 8)
	m.Register("slow", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		started <- struct{}{}
		select {
		case <-time.After(20 * time.Millisecond):
			return json.RawMessage(`{}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	a, _, err := m.Submit(context.Background(), "slow", json.RawMessage(`{"i":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(context.Background(), "slow", json.RawMessage(`{"i":2}`))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	// Both the running and the queued job completed during the drain.
	for _, id := range []string{a.ID, b.ID} {
		info, ok := m.Get(id)
		if !ok || info.State != StateDone {
			t.Fatalf("job %s after drain: %+v", id, info)
		}
	}
	if _, _, err := m.Submit(context.Background(), "slow", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after drain: %v", err)
	}
	if err := m.Drain(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("double drain: %v", err)
	}
}

func TestDrainDeadlineCancels(t *testing.T) {
	m := New(Options{Workers: 1, Queue: 8})
	running := make(chan struct{})
	m.Register("hang", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		close(running)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	a, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":1}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":2}`))
	if err != nil {
		t.Fatal(err)
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain: %v", err)
	}
	ia, _ := m.Get(a.ID)
	ib, _ := m.Get(b.ID)
	if ia.State != StateCancelled || ib.State != StateCancelled {
		t.Fatalf("states after forced drain: %s, %s", ia.State, ib.State)
	}
}

func TestJobTimeout(t *testing.T) {
	m := New(Options{Workers: 1, Timeout: 30 * time.Millisecond})
	m.Register("hang", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	defer drain(t, m)
	info, _, err := m.Submit(context.Background(), "hang", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, info.ID, StateFailed)
	if got.State != StateFailed {
		t.Fatalf("timed-out job: %+v", got)
	}
}

// TestIDPreservesLargeIntegers guards the canonicalization against
// float64 round-tripping: int64 parameters above 2^53 must neither
// collide in the ID nor come back altered in the canonical params.
func TestIDPreservesLargeIntegers(t *testing.T) {
	a, err := ID("census", json.RawMessage(`{"seed":9007199254740993}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ID("census", json.RawMessage(`{"seed":9007199254740992}`))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("adjacent 2^53-scale seeds share a job ID")
	}
	canon, err := canonicalJSON(json.RawMessage(`{"seed": 9223372036854775807}`))
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		Seed int64 `json:"seed"`
	}
	if err := json.Unmarshal(canon, &p); err != nil || p.Seed != 9223372036854775807 {
		t.Fatalf("MaxInt64 seed corrupted by canonicalization: %s (%v)", canon, err)
	}
	if _, err := canonicalJSON(json.RawMessage(`{"a":1} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestCancelQueuedFreesSlot guards the queue accounting: cancelling a
// queued job must free its slot immediately, and resubmitting it must
// not double-run it.
func TestCancelQueuedFreesSlot(t *testing.T) {
	var runs atomic.Int64
	block := make(chan struct{})
	m := New(Options{Workers: 1, Queue: 2})
	m.Register("hang", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	m.Register("count", func(ctx context.Context, p json.RawMessage) (json.RawMessage, error) {
		runs.Add(1)
		select {
		case <-block:
		case <-ctx.Done():
		}
		return json.RawMessage(`{}`), nil
	})
	defer func() { close(block); drain(t, m) }()

	hog, _, err := m.Submit(context.Background(), "hang", json.RawMessage(`{"i":0}`))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, hog.ID, StateRunning)
	q1, _, err := m.Submit(context.Background(), "count", json.RawMessage(`{"i":1}`))
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := m.Submit(context.Background(), "count", json.RawMessage(`{"i":2}`))
	if err != nil {
		t.Fatal(err)
	}
	// Queue is now full; cancelling a queued job must free its slot.
	if _, _, err := m.Submit(context.Background(), "count", json.RawMessage(`{"i":3}`)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue should be full: %v", err)
	}
	if _, err := m.Cancel(q1.ID); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Queued != 1 {
		t.Fatalf("cancelled job still occupies the queue: %+v", st)
	}
	// Resubmitting the cancelled job re-queues it exactly once, in the
	// freed slot.
	again, existing, err := m.Submit(context.Background(), "count", json.RawMessage(`{"i":1}`))
	if err != nil || existing || again.ID != q1.ID || again.State != StateQueued {
		t.Fatalf("resubmit after cancel: %+v existing=%v err=%v", again, existing, err)
	}
	if st := m.Stats(); st.Queued != 2 {
		t.Fatalf("queue depth after resubmit: %+v", st)
	}
	close(block)
	waitState(t, m, hog.ID, StateDone)
	waitState(t, m, q2.ID, StateDone)
	waitState(t, m, again.ID, StateDone)
	// hang ran once (uncounted); count ran exactly twice — i=2 and the
	// re-queued i=1; the cancelled submission itself never executed and
	// the resubmission did not run twice.
	if n := runs.Load(); n != 2 {
		t.Fatalf("count handler ran %d times, want 2", n)
	}
	block = make(chan struct{}) // neutralize the deferred close
}
