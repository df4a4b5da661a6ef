package sim

import (
	"fmt"
	"sync"
	"testing"
)

// TestProcPanicPropagates checks that a panic in a process body reaches the
// caller of Run or RunUntil, where it can be recovered, both when the body
// panics on its first resume and after it has blocked.
func TestProcPanicPropagates(t *testing.T) {
	cases := []struct {
		name  string
		body  func(p *Proc)
		drive func(e *Engine)
		at    VTime
	}{
		{"first-resume/Run", func(p *Proc) { panic("boom") }, (*Engine).Run, 0},
		{"after-sleep/Run", func(p *Proc) { p.Sleep(5); panic("boom") }, (*Engine).Run, 5},
		{"after-sleep/RunUntil", func(p *Proc) { p.Sleep(5); panic("boom") },
			func(e *Engine) { e.RunUntil(100) }, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.Go("boom", c.body)
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("recovered %v, want the process's panic value", r)
					}
				}()
				c.drive(e)
				t.Fatal("drive returned normally after the process panicked")
			}()
			if e.Now() != c.at {
				t.Errorf("Now() = %v after the panic, want %v", e.Now(), c.at)
			}
		})
	}
}

// procWorkload starts processes that cover every blocking primitive — Sleep,
// Wait, a contended Semaphore and Mutex — alongside plain callback events,
// and returns the log they append (name:step@time).
func procWorkload(e *Engine) *[]string {
	log := new([]string)
	mark := func(p *Proc, what string) {
		*log = append(*log, fmt.Sprintf("%s:%s@%d", p.Name(), what, p.Now()))
	}
	sem := NewSemaphore(e, 2)
	mu := NewMutex(e)
	for i := 0; i < 4; i++ {
		hold := VTime(7 + 3*i)
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 5; j++ {
				sem.Acquire(p)
				mark(p, "acq")
				f := NewFuture(e)
				e.AtComplete(p.Now()+hold, f)
				p.Wait(f)
				sem.Release()
				mu.Lock(p)
				mark(p, "lock")
				p.Sleep(hold / 2)
				mu.Unlock()
			}
			mark(p, "done")
		})
	}
	for t := VTime(0); t < 200; t += 13 {
		t := t
		e.At(t, func() { *log = append(*log, fmt.Sprintf("tick@%d", t)) })
	}
	return log
}

// TestProcResumeAcrossGoroutines drives one engine in RunUntil windows, each
// from a fresh goroutine (as the shard coordinator does), and requires the
// same event log as a single-goroutine Run. Run it under -race: resuming a
// process from a goroutine other than the one that started it must stay
// race-free.
func TestProcResumeAcrossGoroutines(t *testing.T) {
	ref := NewEngine()
	want := procWorkload(ref)
	ref.Run()

	e := NewEngine()
	got := procWorkload(e)
	for w := VTime(0); e.Pending() > 0; w += 11 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.RunUntil(w)
		}()
		wg.Wait()
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after draining, want 0", e.LiveProcs())
	}
	if len(*got) != len(*want) {
		t.Fatalf("windowed drive logged %d steps, want %d", len(*got), len(*want))
	}
	for i := range *want {
		if (*got)[i] != (*want)[i] {
			t.Fatalf("step %d: windowed drive %q, single drive %q", i, (*got)[i], (*want)[i])
		}
	}
}

// BenchmarkProcSwitch measures one process Sleep round trip: schedule the
// wake-up, yield to the engine, dispatch the event and resume the process.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
