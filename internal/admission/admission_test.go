package admission

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

// TestAdmitImmediateWhenIdle pins the fast path: an idle controller
// grants without queuing and reports zero wait.
func TestAdmitImmediateWhenIdle(t *testing.T) {
	c := New(Config{MaxConcurrent: 1})
	tk, err := c.Admit(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tk.WaitSeconds != 0 {
		t.Fatalf("immediate admission must not report queue wait, got %v", tk.WaitSeconds)
	}
	if s := c.Snapshot(); s.Running != 1 || s.Queued != 0 {
		t.Fatalf("snapshot after grant: %+v", s)
	}
	tk.Release()
	if s := c.Snapshot(); s.Running != 0 || s.BacklogSeconds != 0 {
		t.Fatalf("snapshot after release: %+v", s)
	}
}

// TestQueueBoundSheds pins count-based shedding: with the single slot
// taken and the queue full, the next arrival gets a ShedError carrying a
// Retry-After of at least a second, and is never blocked.
func TestQueueBoundSheds(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 1, MaxBacklogSeconds: -1})
	running, err := c.Admit(context.Background(), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	queuedDone := make(chan error, 1)
	go func() {
		tk, err := c.Admit(context.Background(), 0.2)
		if tk != nil {
			tk.Release()
		}
		queuedDone <- err
	}()
	// Wait until the goroutine is actually queued.
	for i := 0; ; i++ {
		if c.Snapshot().Queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Admit(context.Background(), 0.2)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("full queue must shed, got err=%v", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("RetryAfter must be at least 1s, got %v", shed.RetryAfter)
	}
	running.Release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued waiter should have been granted on release: %v", err)
	}
}

// TestBacklogBoundSheds pins seconds-based shedding: predicted backlog
// above MaxBacklogSeconds sheds even though the count bound has room.
func TestBacklogBoundSheds(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 100, MaxBacklogSeconds: 5})
	if _, err := c.Admit(context.Background(), 4.0); err != nil {
		t.Fatal(err)
	}
	// 4.0 running + 2.0 candidate > 5.0 cap → shed, with queue empty.
	_, err := c.Admit(context.Background(), 2.0)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("backlog overflow must shed, got err=%v", err)
	}
	if shed.BacklogSeconds != 4.0 {
		t.Fatalf("shed error should report the 4s backlog, got %v", shed.BacklogSeconds)
	}
	// A cheaper query still fits under the cap → queued, not shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		tk, err := c.Admit(ctx, 0.5)
		if tk != nil {
			tk.Release()
		}
		done <- err
	}()
	for i := 0; ; i++ {
		if c.Snapshot().Queued == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("cheap query should queue, not shed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter must return ctx.Err, got %v", err)
	}
	// The cancelled waiter's cost must leave the backlog.
	if s := c.Snapshot(); s.Queued != 0 || s.BacklogSeconds != 4.0 {
		t.Fatalf("cancel must remove waiter and its backlog: %+v", s)
	}
}

// TestFIFOOrder pins grant ordering: waiters are granted in arrival
// order when slots free up.
func TestFIFOOrder(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 8, MaxBacklogSeconds: -1})
	first, err := c.Admit(context.Background(), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		// Serialize enqueue so arrival order is deterministic.
		ready := make(chan struct{})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			go func() {
				for c.Snapshot().Queued <= i {
					time.Sleep(time.Millisecond)
				}
				close(ready)
			}()
			tk, err := c.Admit(context.Background(), 0.1)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			tk.Release()
		}(i)
		<-ready
	}
	first.Release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grants out of FIFO order: %v", order)
		}
	}
}

// TestRetryAfterRoundsUp pins the shed backoff estimate: fractional
// backlogs must round UP to whole seconds (1.4s of backlog → "retry in
// 2"), never down — a truncated hint invites clients back before the
// backlog can have drained.
func TestRetryAfterRoundsUp(t *testing.T) {
	cases := []struct {
		backlog float64
		want    time.Duration
	}{
		{0.2, time.Second},     // sub-second floors at the Retry-After granularity
		{1.0, time.Second},     // exact seconds stay exact
		{1.4, 2 * time.Second}, // pre-fix Round() said 1s here
		{1.9, 2 * time.Second},
		{2.0, 2 * time.Second},
	}
	for _, tc := range cases {
		c := New(Config{MaxConcurrent: 1, MaxQueue: 100, MaxBacklogSeconds: 0.01})
		if _, err := c.Admit(context.Background(), tc.backlog); err != nil {
			t.Fatal(err)
		}
		_, err := c.Admit(context.Background(), 1.0)
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("backlog %v: expected shed, got %v", tc.backlog, err)
		}
		if shed.RetryAfter != tc.want {
			t.Errorf("backlog %vs: RetryAfter = %v, want %v", tc.backlog, shed.RetryAfter, tc.want)
		}
	}
}

// TestNaNCostFloored pins that a cost that is not a number cannot disable
// the backlog bound: Admit prices it at minCost, so the backlog stays
// finite and a 10 s request against a 1 s cap is still shed. A NaN that
// reached the backlog stayed there — every later release subtracted from
// it — and no request was ever shed by the cap again.
func TestNaNCostFloored(t *testing.T) {
	c := New(Config{MaxConcurrent: 1, MaxQueue: 100, MaxBacklogSeconds: 1})
	tk, err := c.Admit(context.Background(), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if b := c.Snapshot().BacklogSeconds; b != minCost {
		t.Fatalf("backlog after a NaN-cost admit = %v, want %v", b, minCost)
	}
	_, err = c.Admit(context.Background(), 10)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("a 10s request against a 1s cap must shed, got %v", err)
	}
	tk.Release()
	if s := c.Snapshot(); s.Running != 0 || s.BacklogSeconds != 0 {
		t.Fatalf("snapshot after release: %+v", s)
	}
}
