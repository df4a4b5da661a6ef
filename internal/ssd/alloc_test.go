package ssd

import "testing"

// TestCommandAllocs guards the pooled command path: once the command pool,
// the event queues and the FTL's scratch buffers are warm, a host Read,
// Write or Flush allocates only the future it returns (plus whatever the
// FTL itself must allocate, here one program future per filled page).
func TestCommandAllocs(t *testing.T) {
	e, d := testDevice(t, nil)
	unit := int64(d.f.UnitSize())
	spp := int64(2048) / unit // testDevice's page size over the unit size

	// Warm up: fill and program a few pages, then read them back once so
	// they sit in the DRAM cache.
	for i := int64(0); i < 4*spp; i++ {
		d.Write(i*unit, unit, AreaData)
	}
	d.Flush(AreaData)
	e.Run()
	for i := int64(0); i < 4*spp; i++ {
		d.Read(i*unit, unit)
	}
	e.Run()

	// Cache-hit read: the back end completes on the engine's shared future.
	if n := testing.AllocsPerRun(100, func() {
		d.Read(0, unit)
		e.Run()
	}); n != 1 {
		t.Errorf("cached Read allocates %.2f/op, want 1 (its future)", n)
	}

	// Flush with nothing buffered: the FTL's Sync is allocation-free.
	if n := testing.AllocsPerRun(100, func() {
		d.Flush(AreaData)
		e.Run()
	}); n != 1 {
		t.Errorf("idle Flush allocates %.2f/op, want 1 (its future)", n)
	}

	// A page of overwrites: one future per Write, one program future.
	if n := testing.AllocsPerRun(50, func() {
		for i := int64(0); i < spp; i++ {
			d.Write(i*unit, unit, AreaData)
		}
		e.Run()
	}); n != float64(spp+1) {
		t.Errorf("page of Writes allocates %.2f, want %d (%d futures + 1 program future)", n, spp+1, spp)
	}
}
