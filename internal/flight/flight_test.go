package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcons/internal/obs"
)

// TestCoalesce: followers that arrive while the leader runs share its
// result; exactly one caller computes.
func TestCoalesce(t *testing.T) {
	var g Group[string]
	release := make(chan struct{})
	var computes atomic.Int64

	leaderIn := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]string, 6)
	sharedFlags := make([]bool, 6)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, shared, err := g.Do(context.Background(), "k", func(context.Context) (string, error) {
			computes.Add(1)
			close(leaderIn)
			<-release
			return "value", nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], sharedFlags[0] = v, shared
	}()
	<-leaderIn // the computation is in flight

	for i := 1; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), "k", func(context.Context) (string, error) {
				computes.Add(1)
				return "follower-computed", nil
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], sharedFlags[i] = v, shared
		}()
	}
	// Give followers a moment to park on the in-flight call, then finish.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	sharedCount := 0
	for i, v := range results {
		if v != "value" {
			t.Errorf("caller %d got %q", i, v)
		}
		if sharedFlags[i] {
			sharedCount++
		}
	}
	if sharedFlags[0] {
		t.Error("leader reported shared=true")
	}
	if sharedCount != 5 {
		t.Errorf("shared results = %d, want 5", sharedCount)
	}
}

// TestLeaderFailureFollowersRecompute: a failed leader's error reaches
// only the leader; a waiting follower recomputes instead of inheriting
// the error or hanging.
func TestLeaderFailureFollowersRecompute(t *testing.T) {
	var g Group[int]
	leaderIn := make(chan struct{})
	fail := make(chan struct{})
	bang := errors.New("leader exploded")

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(leaderIn)
			<-fail
			return 0, bang
		})
		leaderErr <- err
	}()
	<-leaderIn

	const followers = 4
	type res struct {
		v   int
		err error
	}
	done := make(chan res, followers)
	var recomputes atomic.Int64
	for i := 0; i < followers; i++ {
		go func() {
			v, _, err := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				recomputes.Add(1)
				return 42, nil
			})
			done <- res{v, err}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(fail)

	if err := <-leaderErr; !errors.Is(err, bang) {
		t.Fatalf("leader error = %v, want %v", err, bang)
	}
	for i := 0; i < followers; i++ {
		select {
		case r := <-done:
			if r.err != nil {
				t.Fatalf("follower error after leader failure: %v", r.err)
			}
			if r.v != 42 {
				t.Fatalf("follower value = %d, want 42", r.v)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("follower hung after leader failure")
		}
	}
	// At least one follower recomputed; successful retries coalesce the
	// rest, so the count is in [1, followers].
	if n := recomputes.Load(); n < 1 || n > followers {
		t.Fatalf("recomputes = %d, want 1..%d", n, followers)
	}
	// The error was not cached: a fresh call computes normally.
	if v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil }); err != nil || shared || v != 7 {
		t.Fatalf("post-failure call = (%d, %v, %v), want (7, false, nil)", v, shared, err)
	}
}

// TestFollowerCancel: a follower whose context ends while waiting
// returns promptly with its context error; the leader and remaining
// followers are unaffected.
func TestFollowerCancel(t *testing.T) {
	var g Group[string]
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = g.Do(context.Background(), "k", func(context.Context) (string, error) {
			close(leaderIn)
			<-release
			return "late", nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", func(context.Context) (string, error) { return "", nil })
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower did not return")
	}

	// A patient follower still gets the leader's value.
	got := make(chan string, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", func(context.Context) (string, error) { return "", nil })
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	if v := <-got; v != "late" {
		t.Fatalf("patient follower got %q, want %q", v, "late")
	}
}

// TestConcurrentCancelStorm: many callers with short, staggered
// deadlines racing one slow key must all terminate (either with the
// value or their own context error) — no deadlocks, no lost wakeups.
func TestConcurrentCancelStorm(t *testing.T) {
	var g Group[int]
	var wg sync.WaitGroup
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%7)*time.Millisecond)
				defer cancel()
				_, _, err := g.Do(ctx, "storm", func(context.Context) (int, error) {
					select {
					case <-time.After(3 * time.Millisecond):
					case <-ctx.Done():
						return 0, ctx.Err()
					}
					return 1, nil
				})
				if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
					t.Errorf("unexpected error: %v", err)
				}
			}()
		}
		wg.Wait()
	}
	if g.Pending("storm") {
		t.Fatal("call leaked in the group after all callers returned")
	}
}

// TestDistinctKeys: different keys never coalesce.
func TestDistinctKeys(t *testing.T) {
	var g Group[string]
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			v, shared, err := g.Do(context.Background(), key, func(context.Context) (string, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond)
				return key, nil
			})
			if err != nil || shared || v != key {
				t.Errorf("key %s: (%q, %v, %v)", key, v, shared, err)
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 8 {
		t.Fatalf("computations = %d, want 8", got)
	}
}

// TestLeaderSpanParentsWork: fn runs under the flight.lead span, so a
// span fn starts is its child, not its sibling, and flight.lead's self
// time excludes the work.
func TestLeaderSpanParentsWork(t *testing.T) {
	rec := obs.NewRecorder(4)
	ctx, root := obs.NewTracer(1, rec).StartTrace(context.Background(), "request", "trace1", false)
	var g Group[int]
	if _, _, err := g.Do(ctx, "k", func(ctx context.Context) (int, error) {
		_, work := obs.StartSpan(ctx, "work")
		work.End()
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	tr := rec.Lookup("trace1")
	if tr == nil {
		t.Fatal("trace not recorded")
	}
	byName := map[string]obs.SpanData{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
	}
	lead, work := byName["flight.lead"], byName["work"]
	if lead.ID == 0 || work.ID == 0 {
		t.Fatalf("missing spans: %+v", tr.Spans)
	}
	if lead.Parent != byName["request"].ID {
		t.Errorf("flight.lead parent = %d, want the request span %d", lead.Parent, byName["request"].ID)
	}
	if work.Parent != lead.ID {
		t.Errorf("work span parent = %d, want flight.lead %d", work.Parent, lead.ID)
	}
}
