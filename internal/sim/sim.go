// Package sim is the shared discrete-event engine the serving simulators
// run on. It provides a logical-millisecond clock and a deterministic
// event queue: events fire in (time, seq) total order, where seq is the
// scheduling order, so two events at the same instant fire in the order
// they were scheduled. Nothing sleeps and nothing reads wall time — a
// run is a pure function of the events its processes schedule, which is
// what lets a whole serving cluster (instances, routers, fault windows)
// share one clock and still produce byte-identical reports on every run.
//
// The engine is deliberately single-threaded: handlers run one at a
// time, in order, on the caller's goroutine. Determinism comes from the
// total order, not from locking; concurrency belongs one level up
// (benchall runs whole experiments in parallel, each on its own engine,
// and Sweep fans a grid of independent runs across workers).
//
// Internally the queue is a calendar queue (calqueue.go): a fixed wheel
// of time buckets for the near future plus an overflow heap for events
// beyond the horizon. For the clustered-in-time schedules serving
// workloads produce, push and pop are amortized O(1) instead of the
// O(log n) of a single binary heap, and neither path allocates in steady
// state. The seed's container/heap queue is kept as a reference
// implementation (refheap_test.go) for differential tests and
// benchmarks.
package sim

// Handler is an event callback. now is the event's firing time on the
// logical clock (always >= every previously fired event's time).
type Handler func(now float64)

// ArgHandler is an event callback that also receives the uint64 argument
// it was scheduled with. It exists so long-lived processes (a serving
// instance, an arrival pump) can bind ONE closure at construction time
// and schedule it many times with per-event data in arg — the schedule
// path then allocates nothing, where a fresh closure per event would
// allocate every time.
type ArgHandler func(now float64, arg uint64)

// event is one scheduled callback. Exactly one of fn and afn is set.
type event struct {
	time float64
	seq  uint64
	fn   Handler
	afn  ArgHandler
	arg  uint64
}

// eventCmp orders events by (time, seq) — the engine's total order. seq
// is unique, so the order is strict and any sort (stable or not) yields
// the same permutation.
func eventCmp(a, b event) int {
	if a.time != b.time {
		if a.time < b.time {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// eventQueue is the priority-queue contract the calendar queue and the
// tests' reference heap both satisfy: pop returns events in (time, seq)
// order.
type eventQueue interface {
	push(e event)
	pop() (event, bool)
	size() int
}

// Engine is the discrete-event loop. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	queue eventQueue
	seq   uint64
	now   float64
	// fired counts delivered events (visible for tests and reports).
	fired uint64
}

// NewEngine returns an empty engine at time zero, backed by the calendar
// queue.
func NewEngine() *Engine {
	return &Engine{queue: newCalQueue()}
}

// Now is the current logical time in milliseconds: the firing time of
// the event being handled (or of the last one handled).
func (e *Engine) Now() float64 { return e.now }

// Pending reports how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return e.queue.size() }

// Fired reports how many events have been delivered.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn at absolute time t. Scheduling in the past (t < Now)
// clamps to Now: the event fires next, after already-queued events at
// the current instant — time never runs backwards.
func (e *Engine) At(t float64, fn Handler) {
	e.queue.push(event{time: e.notBefore(t), seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn d milliseconds from Now. Negative d clamps to zero.
func (e *Engine) After(d float64, fn Handler) {
	e.At(e.now+d, fn)
}

// AtArg schedules fn at absolute time t with a caller-chosen argument,
// under the same clamping and (time, seq) ordering as At. Reusing one
// ArgHandler across many AtArg calls keeps the schedule path
// allocation-free.
func (e *Engine) AtArg(t float64, fn ArgHandler, arg uint64) {
	e.queue.push(event{time: e.notBefore(t), seq: e.seq, afn: fn, arg: arg})
	e.seq++
}

// AfterArg schedules fn d milliseconds from Now with an argument.
// Negative d clamps to zero.
func (e *Engine) AfterArg(d float64, fn ArgHandler, arg uint64) {
	e.AtArg(e.now+d, fn, arg)
}

// Stream schedules n events: item i fires fn(now, i) at time at(i), for
// i = 0..n-1, where at must be non-decreasing in i (an arrival trace in
// arrival order) and clamps to Now like AtArg. It
// reserves n sequence numbers up front but keeps only one item of the
// stream queued at a time: firing item i queues item i+1 with sequence
// number base+i+1 before fn runs. Item i+1 sorts after item i in (time,
// seq) order, and its seq is below every seq a handler allocates later,
// so the firing order is exactly that of n up-front AtArg calls made
// here — while the queue holds O(1) of the stream instead of O(n).
func (e *Engine) Stream(n int, at func(i int) float64, fn ArgHandler) {
	if n <= 0 {
		return
	}
	base := e.seq
	e.seq += uint64(n)
	var next ArgHandler
	next = func(now float64, i uint64) {
		if j := i + 1; j < uint64(n) {
			e.queue.push(event{time: e.notBefore(at(int(j))), seq: base + j, afn: next, arg: j})
		}
		fn(now, i)
	}
	e.queue.push(event{time: e.notBefore(at(0)), seq: base, afn: next})
}

// notBefore clamps a scheduling time to Now, the rule At and AtArg apply.
func (e *Engine) notBefore(t float64) float64 {
	if t < e.now {
		return e.now
	}
	return t
}

// Run fires events in (time, seq) order until the queue is empty.
// Handlers may schedule further events.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// Step fires the single next event, reporting false when the queue is
// empty.
func (e *Engine) Step() bool {
	ev, ok := e.queue.pop()
	if !ok {
		return false
	}
	e.now = ev.time
	e.fired++
	if ev.afn != nil {
		ev.afn(ev.time, ev.arg)
	} else {
		ev.fn(ev.time)
	}
	return true
}
