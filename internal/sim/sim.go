// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every timed component of the Check-In reproduction: the
// NAND flash array, the SSD controller, and the simulated storage-engine
// client threads. Simulated time is virtual (VTime, nanoseconds); nothing in
// the simulation path consults the wall clock, so a run is a pure function of
// its configuration and seed.
//
// Two styles of simulated activity are supported:
//
//   - Callback events: Engine.Schedule(delay, fn) runs fn at a future virtual
//     time. Cheap; used for I/O completions and timers.
//   - Processes: Engine.Go starts a cooperative process (Proc) that may Sleep
//     and Wait on Futures. Processes express closed-loop clients (a YCSB
//     thread issuing queries back-to-back) as straight-line code.
//
// Each process is an iter.Pull coroutine: the engine resumes it and it
// yields back, so exactly one of {engine, process} runs at a time and
// execution order — and therefore every simulation result — is deterministic.
package sim

import (
	"fmt"
	"iter"
)

// VTime is a point in (or duration of) virtual time, in nanoseconds.
type VTime uint64

// Convenient virtual-time units.
const (
	Nanosecond  VTime = 1
	Microsecond VTime = 1000 * Nanosecond
	Millisecond VTime = 1000 * Microsecond
	Second      VTime = 1000 * Millisecond
)

// String renders a VTime using the most natural unit.
func (t VTime) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", uint64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t VTime) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t VTime) Micros() float64 { return float64(t) / float64(Microsecond) }

type event struct {
	at  VTime
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	// fut, when non-nil, is completed instead of calling fn. Completing a
	// future is the single most common event in the simulator (every flash
	// operation ends in one), and carrying the future directly avoids
	// allocating a fut.Complete method-value closure per operation.
	fut *Future
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). The heap is hand
// rolled rather than built on container/heap: the interface-based API boxes
// every event into an `any` on Push/Pop, which made the two calls the
// largest allocation sites in the whole simulator (~40% of objects on the
// paper's experiment suite). The fan-out of four halves the sift-down depth
// versus a binary heap — pop is the hottest kernel operation once event
// dispatch stops allocating — and since (at, seq) is a strict total order
// (seq is unique), the dispatch sequence is identical to any other heap
// arity: determinism does not depend on the internal shape.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release the fn reference for GC
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if s.less(j, least) {
				least = j
			}
		}
		if !s.less(least, i) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

func (h eventHeap) nextAt() (VTime, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; create one with NewEngine.
type Engine struct {
	now     VTime
	events  eventHeap
	seq     uint64
	stopped bool

	// nowq is the fast path for events scheduled at the current instant
	// (Schedule(0, ...): future-waiter wake-ups, semaphore grants — the
	// majority of all events). They bypass the heap entirely: entries are
	// appended in seq order and the clock cannot advance while any are
	// pending (the dispatcher always prefers the (at, seq)-least event,
	// and a pending now-event's at equals the clock), so a plain FIFO ring
	// preserves the exact (at, seq) total order the heap would produce.
	// nowq[nowqHead:] are the pending entries, oldest first; the backing
	// array rewinds when the queue drains, so steady state re-uses it.
	nowq     []event
	nowqHead int

	liveProcs int
	executed  uint64

	// extSync, when non-nil, is the registered external completion source: a
	// set of event domains (per-channel NAND timing queues) that compute
	// completion times outside the main loop and merge them back via
	// InjectCompletion. extHorizon is the conservative safe horizon — a lower
	// bound on the earliest instant any un-merged external completion can
	// land. The dispatcher never advances the clock to or past the horizon
	// without first syncing, so injected events are never in the past and the
	// dispatch order stays exactly the (at, seq) total order the sequential
	// kernel produces. ^VTime(0) means "nothing pending".
	extSync    func()
	extHorizon VTime

	// completed is the engine's shared already-done future. A completed
	// future is immutable (OnComplete on a done future only schedules, and
	// Complete on one always panics), so every fast path that finishes
	// synchronously can hand out the same instance instead of allocating.
	completed *Future
}

// maxVTime is the end of virtual time, used as the "no deadline" sentinel
// and as the idle external-sync horizon.
const maxVTime = ^VTime(0)

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{extHorizon: maxVTime}
}

// Now returns the current virtual time.
func (e *Engine) Now() VTime { return e.now }

// Executed returns the number of events processed so far (diagnostics).
func (e *Engine) Executed() uint64 { return e.executed }

// LiveProcs returns the number of processes that have started but not
// finished. After a run completes it should normally be zero; a non-zero
// value indicates a process blocked forever (e.g. on a Future that was never
// completed).
func (e *Engine) LiveProcs() int { return e.liveProcs }

// Schedule runs fn after delay units of virtual time.
func (e *Engine) Schedule(delay VTime, fn func()) {
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t. Scheduling in the past panics: it
// would silently reorder causality.
func (e *Engine) At(t VTime, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v, before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.nowPush(event{at: t, seq: e.seq, fn: fn})
		return
	}
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

func (e *Engine) nowPush(ev event) {
	if e.nowqHead == len(e.nowq) {
		// queue is empty: rewind so the backing array is reused
		e.nowq = e.nowq[:0]
		e.nowqHead = 0
	}
	e.nowq = append(e.nowq, ev)
}

// AtComplete completes f at absolute virtual time t — At(t, f.Complete)
// without the per-call method-value allocation. It shares At's sequence
// numbering, so ordering against fn events at the same instant is exactly
// the submission order.
func (e *Engine) AtComplete(t VTime, f *Future) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling completion at %v, before now %v", t, e.now))
	}
	e.seq++
	if t == e.now {
		e.nowPush(event{at: t, seq: e.seq, fut: f})
		return
	}
	e.events.push(event{at: t, seq: e.seq, fut: f})
}

// ReserveSeq draws the next event sequence number without scheduling
// anything. An external event domain calls it at command submission so that
// the completion it later injects carries exactly the tie-break number the
// sequential kernel's AtComplete would have drawn at the same point in the
// submission order — the linchpin of byte-identical parallel output.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// InjectCompletion merges an externally computed completion into the event
// queue under a sequence number previously reserved with ReserveSeq. The
// event always goes through the heap, never the now-queue: its seq predates
// anything queued at the current instant, and the dispatcher's (at, seq)
// merge of heap head versus now-queue head already orders it correctly.
// Injecting into the past panics — it means the external source violated
// the safe-horizon contract (see LowerHorizon).
func (e *Engine) InjectCompletion(at VTime, seq uint64, f *Future) {
	if at < e.now {
		panic(fmt.Sprintf("sim: injecting completion at %v, before now %v", at, e.now))
	}
	e.events.push(event{at: at, seq: seq, fut: f})
}

// SetExternalSync registers fn as the external completion source's merge
// callback. When the dispatcher is about to advance the clock to or past the
// current safe horizon it invokes fn, which must compute and inject
// (InjectCompletion) every completion for commands submitted so far. Passing
// nil unregisters the source.
func (e *Engine) SetExternalSync(fn func()) {
	e.extSync = fn
	e.extHorizon = maxVTime
}

// LowerHorizon records that the external source may later inject a
// completion at time t or later. The source must call it at every command
// submission with a sound lower bound on that command's completion time
// (submission time plus the minimum service latency); the kernel guarantees
// the clock never reaches t before the source has been synced.
func (e *Engine) LowerHorizon(t VTime) {
	if t < e.extHorizon {
		e.extHorizon = t
	}
}

// SyncExternal forces the external source to merge every pending completion
// immediately and resets the safe horizon. Callers that read state the
// external source owns (busy horizons, backlog depths) must sync first; it
// is cheap when nothing is pending.
func (e *Engine) SyncExternal() {
	if e.extSync == nil {
		return
	}
	// Reset before the callback: injected completions need no new horizon
	// (they are real events now), and submissions cannot happen during sync.
	e.extHorizon = maxVTime
	e.extSync()
}

// Stop makes Run return after the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.RunUntil(^VTime(0))
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// to the deadline if it runs out of events earlier. Events beyond the
// deadline stay queued.
func (e *Engine) RunUntil(deadline VTime) {
	e.stopped = false
	for !e.stopped {
		// Conservative sync: before advancing to (or past) the external
		// safe horizon, merge the external domains' completions into the
		// queue. The horizon is a lower bound on every un-merged
		// completion's timestamp, so any candidate event at or beyond it —
		// or an empty queue — might be preceded (or tied-and-preceded by
		// seq) by an external completion. extHorizon is ^VTime(0) when
		// nothing external is pending, which skips all of this.
		if e.extHorizon != maxVTime && e.extHorizon <= deadline {
			at := maxVTime
			if e.nowqHead < len(e.nowq) {
				// A pending now-event sits at the clock, which never
				// passes the horizon un-synced, so this candidate always
				// precedes the heap head's time.
				at = e.nowq[e.nowqHead].at
			} else if hat, ok := e.events.nextAt(); ok {
				at = hat
			}
			if at >= e.extHorizon {
				e.SyncExternal()
				continue
			}
		}
		// Select the (at, seq)-least pending event across the now-queue
		// and the heap — exactly the order a single heap would dispatch.
		// A pending now-event sits at the current clock, so a heap event
		// only precedes it via a smaller seq at the same instant (it was
		// scheduled earlier, from further in the past).
		var ev event
		if e.nowqHead < len(e.nowq) {
			nf := &e.nowq[e.nowqHead]
			if at, ok := e.events.nextAt(); ok && (at < nf.at || (at == nf.at && e.events[0].seq < nf.seq)) {
				if at > deadline {
					break
				}
				ev = e.events.pop()
			} else {
				if nf.at > deadline {
					break
				}
				ev = *nf
				*nf = event{} // release the fn reference for GC
				e.nowqHead++
			}
		} else {
			at, ok := e.events.nextAt()
			if !ok || at > deadline {
				break
			}
			ev = e.events.pop()
		}
		e.now = ev.at
		e.executed++
		if ev.fut != nil {
			ev.fut.Complete()
		} else {
			ev.fn()
		}
	}
	if deadline != maxVTime && e.now < deadline {
		// Never advance past the external safe horizon: a completion could
		// land exactly on it. Normal exits guarantee extHorizon > deadline
		// (the loop syncs first); this clamp only matters after Stop.
		adv := deadline
		if e.extHorizon < adv {
			adv = e.extHorizon
		}
		if e.now < adv {
			e.now = adv
		}
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) + len(e.nowq) - e.nowqHead }

// NextEventAt returns the timestamp of the earliest queued event, and
// whether one exists. Coordinators driving several engines in lockstep use
// it to fast-forward idle drain windows instead of stepping through empty
// quanta one deadline at a time.
func (e *Engine) NextEventAt() (VTime, bool) {
	if e.nowqHead < len(e.nowq) {
		return e.nowq[e.nowqHead].at, true
	}
	return e.events.nextAt()
}

// EngineState is the restorable kernel state: the virtual clock, the event
// sequence counter (same-time tie-break order) and the executed-event count.
// Queued events are deliberately NOT part of the state — closures cannot be
// copied — so State is only meaningful at a quiescent point where the queue
// holds nothing the caller cannot deterministically re-create (see
// Engine.Restore).
type EngineState struct {
	Now      VTime
	Seq      uint64
	Executed uint64
}

// State captures the kernel counters for a later Restore.
func (e *Engine) State() EngineState {
	return EngineState{Now: e.now, Seq: e.seq, Executed: e.executed}
}

// Restore rewinds (or fast-forwards) the engine to a previously captured
// state, discarding every queued event. The caller owns re-creating whatever
// periodic events belong at the restored instant; because the sequence
// counter is restored too, re-created events draw the same tie-break numbers
// they had on the original timeline, keeping same-time ordering identical.
// Restoring with live processes panics: their coroutine stacks reference the
// discarded timeline and cannot be rewound.
func (e *Engine) Restore(s EngineState) {
	if e.liveProcs != 0 {
		panic(fmt.Sprintf("sim: Restore with %d live processes", e.liveProcs))
	}
	for i := range e.events {
		e.events[i] = event{} // release fn closures for GC
	}
	e.events = e.events[:0]
	for i := range e.nowq {
		e.nowq[i] = event{}
	}
	e.nowq = e.nowq[:0]
	e.nowqHead = 0
	e.now = s.Now
	e.seq = s.Seq
	e.executed = s.Executed
	e.stopped = false
	// The external source discards its own un-merged commands on restore
	// (they belong to the abandoned timeline), so the horizon resets to idle.
	e.extHorizon = maxVTime
}

// A Proc is a cooperative simulated process, run as an iter.Pull coroutine.
// All its methods must be called from inside the function passed to
// Engine.Go.
type Proc struct {
	eng  *Engine
	name string

	// resume (the coroutine's pull next) runs the body until it yields or
	// returns; yield parks the body and hands control back to the event
	// that resumed it. A panic in the body surfaces from resume, so it
	// reaches the caller of Run.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// switchFn caches the switchTo method value so scheduling a wake-up
	// (Sleep, Wait, Semaphore.Acquire) does not allocate a new closure per
	// call — these are the hottest scheduling sites in the simulator.
	switchFn func()
}

// Name returns the name given at Go time (diagnostics).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns current virtual time.
func (p *Proc) Now() VTime { return p.eng.now }

// Go starts a new process at the current virtual time. The process body runs
// when the engine reaches the scheduling event; it may call Sleep and Wait.
func (e *Engine) Go(name string, fn func(p *Proc)) {
	p := &Proc{eng: e, name: name}
	p.switchFn = p.switchTo
	e.liveProcs++
	e.Schedule(0, func() {
		p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			fn(p)
			e.liveProcs--
		})
		p.switchTo()
	})
}

// switchTo transfers control into the process and returns, inside the
// calling engine event, once the process blocks or terminates.
func (p *Proc) switchTo() { p.resume() }

// block parks the process until something calls switchTo on it. The wake-up
// must already be scheduled before calling block.
func (p *Proc) block() { p.yield(struct{}{}) }

// Sleep suspends the process for d units of virtual time.
func (p *Proc) Sleep(d VTime) {
	p.eng.Schedule(d, p.switchFn)
	p.block()
}

// Wait suspends the process until f completes. Returns immediately if f is
// already complete.
func (p *Proc) Wait(f *Future) {
	if f.done {
		return
	}
	f.addWaiter(p.switchFn)
	p.block()
}

// WaitAll waits for every future in fs.
func (p *Proc) WaitAll(fs []*Future) {
	for _, f := range fs {
		p.Wait(f)
	}
}

// A Future is a one-shot completion signal carrying no value. It is
// completed at most once, from engine context (an event or a process).
type Future struct {
	eng  *Engine
	done bool
	// w0 holds the first waiter inline: the overwhelming majority of
	// futures have exactly one waiter, and keeping it out of the slice
	// avoids a heap allocation per wait.
	w0      func()
	waiters []func()
}

// addWaiter registers fn preserving FIFO wake-up order.
func (f *Future) addWaiter(fn func()) {
	if f.w0 == nil {
		f.w0 = fn
		return
	}
	f.waiters = append(f.waiters, fn)
}

// NewFuture returns an incomplete future bound to e.
func NewFuture(e *Engine) *Future { return &Future{eng: e} }

// CompletedFuture returns an already-complete future (for fast paths that
// finish synchronously). The instance is shared per engine: done futures
// never mutate, so callers may wait on it, poll it, and register callbacks
// freely — but must not call Complete on it (as on any done future).
func CompletedFuture(e *Engine) *Future {
	if e.completed == nil {
		e.completed = &Future{eng: e, done: true}
	}
	return e.completed
}

// Done reports whether the future has completed.
func (f *Future) Done() bool { return f.done }

// Complete marks the future done and schedules all waiters at the current
// virtual time. Completing twice panics.
func (f *Future) Complete() {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	if f.w0 != nil {
		f.eng.Schedule(0, f.w0)
		f.w0 = nil
	}
	for _, w := range f.waiters {
		f.eng.Schedule(0, w)
	}
	f.waiters = nil
}

// OnComplete registers fn to run when the future completes (immediately, at
// the current time, if it already has).
func (f *Future) OnComplete(fn func()) {
	if f.done {
		f.eng.Schedule(0, fn)
		return
	}
	f.addWaiter(fn)
}

// AfterAll returns a future that completes once all fs have completed.
// With no inputs the result is already complete; with exactly one it is
// returned directly (no wrapper future or callback needed).
func AfterAll(e *Engine, fs []*Future) *Future {
	n := len(fs)
	if n == 0 {
		return CompletedFuture(e)
	}
	if n == 1 {
		return fs[0]
	}
	out := NewFuture(e)
	remaining := n
	dec := func() {
		remaining--
		if remaining == 0 {
			out.Complete()
		}
	}
	for _, f := range fs {
		f.OnComplete(dec)
	}
	return out
}

// A Semaphore is a counting semaphore for simulated processes, used to model
// bounded resources such as command-queue depth.
type Semaphore struct {
	eng   *Engine
	avail int
	// waiters[head:] are the queued acquirers, oldest first. Dequeuing
	// advances head instead of re-slicing from the front, so the backing
	// array is reused once the queue drains rather than reallocated on
	// every wait/wake cycle.
	waiters []func()
	head    int
}

// NewSemaphore returns a semaphore with n initially available permits.
func NewSemaphore(e *Engine, n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: e, avail: n}
}

// Available reports the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Waiting reports the number of blocked acquirers.
func (s *Semaphore) Waiting() int { return len(s.waiters) - s.head }

// Acquire takes a permit, blocking the process until one is free. FIFO.
func (s *Semaphore) Acquire(p *Proc) {
	if s.avail > 0 && s.Waiting() == 0 {
		s.avail--
		return
	}
	s.enqueue(p.switchFn)
	p.block()
}

// TryAcquire takes a permit without blocking; reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.avail > 0 && s.Waiting() == 0 {
		s.avail--
		return true
	}
	return false
}

// AcquireAsync invokes fn (from engine context) once a permit is granted.
func (s *Semaphore) AcquireAsync(fn func()) {
	if s.avail > 0 && s.Waiting() == 0 {
		s.avail--
		s.eng.Schedule(0, fn)
		return
	}
	s.enqueue(fn)
}

func (s *Semaphore) enqueue(fn func()) {
	if s.head == len(s.waiters) {
		// queue is empty: rewind so the backing array is reused
		s.waiters = s.waiters[:0]
		s.head = 0
	}
	s.waiters = append(s.waiters, fn)
}

// Release returns a permit, waking the oldest waiter if any.
func (s *Semaphore) Release() {
	if s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = nil // release the closure for GC
		s.head++
		s.eng.Schedule(0, w)
		return
	}
	s.avail++
}

// A Mutex is a binary semaphore with process-friendly Lock/Unlock naming.
// It models long-held simulated locks (e.g. the checkpoint lock that stalls
// query admission while a checkpoint runs in locked mode).
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked simulated mutex.
func NewMutex(e *Engine) *Mutex { return &Mutex{s: NewSemaphore(e, 1)} }

// Lock blocks the process until the mutex is held.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p) }

// TryLock acquires without blocking; reports success.
func (m *Mutex) TryLock() bool { return m.s.TryAcquire() }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release() }

// A FIFOResource models a serially reusable resource (a flash channel bus, a
// die, a DMA engine) with first-come-first-served queueing. Reservations are
// pure arithmetic over a busy-until horizon: a request arriving at time t is
// serviced in [max(t, busyUntil), max(t, busyUntil)+dur].
type FIFOResource struct {
	busyUntil VTime
	busyTotal VTime // accumulated busy time, for utilization reporting
}

// Reserve books dur time on the resource starting no earlier than now.
// It returns the service start and end times; the caller schedules its own
// completion event at end.
func (r *FIFOResource) Reserve(now VTime, dur VTime) (start, end VTime) {
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end = start + dur
	r.busyUntil = end
	r.busyTotal += dur
	return start, end
}

// BusyUntil returns the time the resource frees up.
func (r *FIFOResource) BusyUntil() VTime { return r.busyUntil }

// BusyTotal returns the cumulative busy time booked on the resource.
func (r *FIFOResource) BusyTotal() VTime { return r.busyTotal }

// IdleAt reports whether the resource is idle at time t.
func (r *FIFOResource) IdleAt(t VTime) bool { return r.busyUntil <= t }
