package simnet

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Clock is a deterministic virtual-time scheduler. Workloads run as tasks
// (Go) or as inline callbacks (At); a task may block only via Sleep. The
// scheduler admits exactly one task at a time: it pops the earliest event,
// advances virtual time, wakes that event's task (or runs its callback
// inline), and waits for the woken task to block or finish before touching
// the next event. Ties break by insertion order. Because at most one task
// ever executes, every shared structure — transport rng, routing tables,
// stores — is mutated in one reproducible order, which is what makes
// same-seed replays byte-identical.
//
// The cost is a rule: tasks must not block on anything the clock cannot
// see (bare channels, mutex convoys held across Sleep, wall-clock timers).
// A task that does stalls the scheduler forever; a task still alive when
// the event heap drains is reported as an error by Run.
type Clock struct {
	mu   sync.Mutex
	cond *sync.Cond

	now    time.Duration
	seq    uint64
	events eventHeap

	tasks  int // live tasks: started and not yet finished
	active int // tasks currently runnable (not parked in Sleep)
}

type event struct {
	at    time.Duration
	seq   uint64
	wake  chan struct{} // a sleeping task to resume, or
	fn    func()        // a callback to run inline, or
	start func()        // a task body to launch
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// NewClock creates a clock at virtual time zero.
func NewClock() *Clock {
	c := &Clock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Now returns the current virtual time. Safe from any goroutine; tasks see
// it advance only across Sleep calls.
func (c *Clock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Clock) push(e event) {
	e.seq = c.seq
	c.seq++
	heap.Push(&c.events, e)
}

// Go schedules fn as a new task starting at the current virtual time. It
// may be called before Run or from inside any task or callback; the task
// body begins once the scheduler reaches its start event.
func (c *Clock) Go(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tasks++
	c.push(event{at: c.now, start: fn})
}

// At schedules fn to run inline at virtual time t (or now, if t has
// passed). Callbacks must not Sleep; use Go for blocking work.
func (c *Clock) At(t time.Duration, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t < c.now {
		t = c.now
	}
	c.push(event{at: t, fn: fn})
}

// Sleep parks the calling task for d of virtual time. Must only be called
// from inside a task started via Go.
func (c *Clock) Sleep(d time.Duration) {
	ch := make(chan struct{})
	c.mu.Lock()
	at := c.now
	if d > 0 {
		at += d
	}
	c.push(event{at: at, wake: ch})
	c.active--
	if c.active == 0 {
		c.cond.Signal()
	}
	c.mu.Unlock()
	<-ch
}

// taskDone is the epilogue of every task goroutine.
func (c *Clock) taskDone() {
	c.mu.Lock()
	c.tasks--
	c.active--
	if c.active == 0 {
		c.cond.Signal()
	}
	c.mu.Unlock()
}

// never is a horizon past every event: Run and Drain step without bound.
const never = time.Duration(1<<63 - 1)

// Run executes root and every task it transitively spawns to completion,
// advancing virtual time as needed. It returns when no live tasks remain;
// events still queued (e.g. churn callbacks beyond the workload's end)
// stay queued for a later Run on the same clock. An error is returned if
// live tasks remain but no event can ever wake them.
func (c *Clock) Run(root func()) error {
	c.Go(root)
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.tasks > 0 {
		if !c.step(never) {
			return fmt.Errorf("simnet: %d tasks blocked outside the clock with no pending events", c.tasks)
		}
	}
	return nil
}

// RunUntil fires every event due at or before t — callbacks, task starts
// and task wake-ups alike, including those scheduled along the way — and
// then advances the clock to t. Later events stay queued.
func (c *Clock) RunUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.step(t) {
	}
	if t > c.now {
		c.now = t
	}
}

// Drain fires events until none are left, leaving the clock at the last
// one's time.
func (c *Clock) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.step(never) {
	}
}

// step fires the earliest event if it is due at or before until, and
// waits for any task it woke to park in Sleep or finish. It reports
// whether an event fired. c.mu must be held, with no task runnable.
func (c *Clock) step(until time.Duration) bool {
	if c.events.Len() == 0 || c.events[0].at > until {
		return false
	}
	ev := heap.Pop(&c.events).(event)
	if ev.at > c.now {
		c.now = ev.at
	}
	switch {
	case ev.wake != nil:
		c.active = 1
		close(ev.wake)
	case ev.start != nil:
		c.active = 1
		fn := ev.start
		go func() {
			defer c.taskDone()
			fn()
		}()
	default:
		// Inline callback: runs on the scheduler goroutine, so it must
		// not Sleep. Release the lock so it may call Go/At/Now.
		c.mu.Unlock()
		ev.fn()
		c.mu.Lock()
	}
	for c.active > 0 {
		c.cond.Wait()
	}
	return true
}
