package core

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// TestRequestAllocs bounds the host request path's allocations in steady
// state: one client issuing Updates, then Gets, on a loaded Check-In
// engine. The bounds are the values the pooled SSD commands,
// the dense JMT index and the entry arena reach; a regression in any of
// them lifts the count.
func TestRequestAllocs(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	const ops = 2000
	var key int64
	perOp := func(op func(p *sim.Proc, k int64)) float64 {
		total := testing.AllocsPerRun(1, func() {
			runProc(e, func(p *sim.Proc) {
				for i := 0; i < ops; i++ {
					key = (key + 7) % en.cfg.Keys
					op(p, key)
				}
			})
		})
		return total / ops
	}
	update := perOp(func(p *sim.Proc, k int64) { en.Update(p, k, 512) })
	get := perOp(func(p *sim.Proc, k int64) { en.Get(p, k) })
	t.Logf("allocs per Update %.2f, per Get %.2f", update, get)
	// An Update here is one group commit: its batch future, the journal
	// Write and Flush command futures, and the program future of the page
	// the flush forces out. A Get is its device Read's future. The 0.1
	// slack absorbs the process start and the occasional checkpoint.
	if update > 4.1 {
		t.Errorf("Update allocates %.2f/op, want <= 4.1", update)
	}
	if get > 1.1 {
		t.Errorf("Get allocates %.2f/op, want <= 1.1", get)
	}
}
