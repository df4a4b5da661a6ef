package sim

import (
	"testing"
)

// TestSchedulingAllocs guards the kernel's steady-state allocation budget:
// once the event heap has grown to workload capacity, scheduling and
// dispatching events — both the closure form (At/Schedule) and the
// future-completion form (AtComplete) — must not allocate. The nand layer
// completes every flash operation through AtComplete, so a regression here
// taxes every simulated I/O.
func TestSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	noop := func() {}
	for i := 0; i < 256; i++ {
		e.Schedule(VTime(i), noop)
	}
	e.Run()

	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(VTime(i+1), noop)
		}
		e.Run()
	}); n != 0 {
		t.Fatalf("steady-state Schedule/dispatch allocates %.2f/op, want 0", n)
	}

	fut := NewFuture(e)
	_ = fut
	if n := testing.AllocsPerRun(100, func() {
		f := CompletedFuture(e)
		if !f.Done() {
			t.Fatal("shared completed future not done")
		}
	}); n != 0 {
		t.Fatalf("CompletedFuture allocates %.2f/op, want 0", n)
	}
}

// TestAtCompleteOrder locks in that AtComplete is observably identical to
// At(t, f.Complete): the future flips to done in strict (time, issue-order)
// sequence, and its waiters are deferred behind already-queued same-time
// events (Complete schedules them as fresh events) — the determinism
// contract every FTL latency measurement rests on.
func TestAtCompleteOrder(t *testing.T) {
	e := NewEngine()
	var log []int
	f1 := NewFuture(e)
	f1.OnComplete(func() { log = append(log, 2) })
	f2 := NewFuture(e)
	f2.OnComplete(func() { log = append(log, 3) })
	e.At(5, func() { log = append(log, 0) })
	e.AtComplete(5, f1)
	e.At(5, func() {
		if !f1.Done() {
			t.Error("f1 not done by the same-time event queued after it")
		}
		log = append(log, 1)
	})
	e.AtComplete(7, f2)
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(log) != len(want) {
		t.Fatalf("got %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("got %v, want %v", log, want)
		}
	}
	if !f1.Done() || !f2.Done() {
		t.Fatal("AtComplete did not complete its futures")
	}
}

// TestProcSwitchAllocs guards the process-switch budget: once the queues
// have grown, a process that blocks in Sleep, Wait and Semaphore.Acquire and
// is resumed by the engine must not allocate. Every simulated client thread
// switches this way several times per query.
func TestProcSwitchAllocs(t *testing.T) {
	const warm, runs = 10, 100
	e := NewEngine()
	sem := NewSemaphore(e, 0)
	release := sem.Release
	futs := make([]*Future, 2*(warm+runs))
	for i := range futs {
		futs[i] = NewFuture(e)
	}
	iters := 0
	e.Go("switcher", func(p *Proc) {
		// One iteration spans 3 ns of virtual time: one switch each
		// through Sleep, Wait and a contended Acquire.
		for _, f := range futs {
			p.Sleep(1)
			e.AtComplete(p.Now()+1, f)
			p.Wait(f)
			e.Schedule(1, release)
			sem.Acquire(p)
			iters++
		}
	})
	step := func() { e.RunUntil(e.Now() + 3) }
	for i := 0; i < warm; i++ {
		step()
	}
	before := iters
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Fatalf("steady-state Sleep/Wait/Acquire switches allocate %.2f/iteration, want 0", n)
	}
	// AllocsPerRun makes one extra warm-up call.
	if got := iters - before; got != runs+1 {
		t.Fatalf("process ran %d iterations during measurement, want %d", got, runs+1)
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after run, want 0", e.LiveProcs())
	}
}
