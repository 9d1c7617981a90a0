// Package admission implements load shedding for the serving layer: a
// bounded FIFO queue in front of a fixed number of execution slots, with
// the queue bounded not only by count but by *predicted seconds of
// backlog*. BlinkDB's contract is bounded response time; a queue that
// admits an hour of work silently converts "5% error in 2 seconds" into
// "5% error in an hour". Pricing admission in predicted seconds keeps
// the door honest: when the backlog exceeds what the configured
// concurrency can drain within MaxBacklogSeconds, new work is shed
// immediately with a Retry-After estimate instead of being queued into a
// latency cliff.
//
// The controller is a plain gate: the caller prices each admission and
// the controller keeps no per-template state. In blinkdb-server the price
// is the engine's cost estimate for the query's template
// (Engine.TemplateWallSeconds, an EWMA of its observed wall seconds),
// or a flat default for a template never seen. The controller never
// scans anything itself: a shed request costs one mutex acquisition,
// which is what lets the server reject a 2× overload burst before any
// planning or scanning happens.
package admission

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Config bounds the controller. The zero value of any field selects its
// default.
type Config struct {
	// MaxConcurrent is the number of queries allowed to execute at once
	// (default 1 — the simulated cluster is CPU-bound and single-tenant
	// per core).
	MaxConcurrent int
	// MaxQueue is the number of waiters allowed behind the running set
	// (default 16). Arrivals beyond it are shed regardless of backlog.
	MaxQueue int
	// MaxBacklogSeconds caps the predicted seconds of admitted-but-
	// unfinished work (running + queued). Arrivals that would push the
	// backlog past it are shed. Default 30; negative disables the cap.
	MaxBacklogSeconds float64
	// Now overrides the clock (tests). Default time.Now.
	Now func() time.Time
}

// ShedError reports a rejected admission: the predicted backlog or queue
// bound was exceeded. RetryAfter estimates when capacity frees up
// (backlog divided by drain rate, at least a second) — blinkdb-server
// maps it onto the Retry-After header of a 429 response.
type ShedError struct {
	RetryAfter time.Duration
	// Queued and BacklogSeconds describe the state that shed the request.
	Queued         int
	BacklogSeconds float64
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: overloaded (%d queued, %.1fs predicted backlog), retry after %s",
		e.Queued, e.BacklogSeconds, e.RetryAfter)
}

// Ticket is a granted execution slot. The holder must call Release
// exactly once when the query finishes (success, error or cancellation).
type Ticket struct {
	c    *Controller
	cost float64
	// WaitSeconds is how long the request queued before its grant (0 for
	// immediate admission).
	WaitSeconds float64
}

// waiter is one queued Admit call. grant is closed (exactly once, under
// the controller mutex) when a slot transfers to it.
type waiter struct {
	grant   chan struct{}
	cost    float64
	granted bool
}

// Controller is the admission gate. Use New; the zero value is not
// ready.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	running int
	queue   []*waiter
	// backlog is the predicted seconds of admitted-but-unfinished work:
	// the sum of cost over running tickets and queued waiters.
	backlog float64
}

// minCost floors every price so a flood of "free" queries still consumes
// backlog budget.
const minCost = 1e-3

// New returns a Controller for cfg (zero fields get defaults).
func New(cfg Config) *Controller {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxBacklogSeconds == 0 {
		cfg.MaxBacklogSeconds = 30
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{cfg: cfg}
}

// Admit requests an execution slot for a query predicted to take cost
// wall seconds; a cost below minCost, NaN included, is raised to it. It
// returns a granted Ticket, a *ShedError when the request is rejected by
// the queue or backlog bound, or ctx.Err() when the context is cancelled
// while queued. Admit never blocks when a shed decision applies —
// overload is rejected immediately.
func (c *Controller) Admit(ctx context.Context, cost float64) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !(cost >= minCost) {
		cost = minCost
	}
	c.mu.Lock()
	if c.running < c.cfg.MaxConcurrent && len(c.queue) == 0 {
		c.running++
		c.backlog += cost
		c.mu.Unlock()
		return &Ticket{c: c, cost: cost}, nil
	}
	if len(c.queue) >= c.cfg.MaxQueue ||
		(c.cfg.MaxBacklogSeconds > 0 && c.backlog+cost > c.cfg.MaxBacklogSeconds) {
		shed := &ShedError{
			RetryAfter:     c.retryAfterLocked(),
			Queued:         len(c.queue),
			BacklogSeconds: c.backlog,
		}
		c.mu.Unlock()
		return nil, shed
	}
	w := &waiter{grant: make(chan struct{}), cost: cost}
	c.queue = append(c.queue, w)
	c.backlog += cost
	c.mu.Unlock()

	enqueued := c.cfg.Now()
	select {
	case <-w.grant:
		return &Ticket{c: c, cost: cost,
			WaitSeconds: c.cfg.Now().Sub(enqueued).Seconds()}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// Lost the race: a Release transferred the slot to us after
			// ctx fired. Hand the slot onward as if we released instantly.
			c.releaseLocked(w.cost)
			c.mu.Unlock()
			return nil, ctx.Err()
		}
		for i, q := range c.queue {
			if q == w {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.backlog -= w.cost
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// retryAfterLocked estimates when shedding stops: the time the configured
// concurrency needs to drain the current predicted backlog, rounded UP to
// whole seconds (the granularity HTTP Retry-After speaks) with a 1s
// floor. Rounding down would invite clients back before the backlog
// drains — a 1.9s estimate must say 2, never 1.
func (c *Controller) retryAfterLocked() time.Duration {
	seconds := c.backlog / float64(c.cfg.MaxConcurrent)
	d := time.Duration(math.Ceil(seconds)) * time.Second
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Release returns the ticket's slot. Exactly one call per ticket.
func (t *Ticket) Release() {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(t.cost)
}

// releaseLocked frees one slot's backlog and transfers the slot to the
// queue head if someone is waiting (FIFO). Caller holds c.mu.
func (c *Controller) releaseLocked(cost float64) {
	c.backlog -= cost
	if c.backlog < 0 {
		c.backlog = 0
	}
	if len(c.queue) > 0 {
		w := c.queue[0]
		c.queue = c.queue[1:]
		w.granted = true
		close(w.grant)
		// running is unchanged: the slot moved from the releaser to w.
		return
	}
	c.running--
}

// Snapshot reports the controller's instantaneous state (for /stats).
type Snapshot struct {
	Running        int
	Queued         int
	BacklogSeconds float64
}

// Snapshot returns the current running/queued/backlog state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{Running: c.running, Queued: len(c.queue), BacklogSeconds: c.backlog}
}
