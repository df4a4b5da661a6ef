package core

import (
	"testing"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/workload"
)

// newStack wires a small simulated device for white-box engine tests.
func newStack(t *testing.T, unit int) (*sim.Engine, *ssd.Device) {
	t.Helper()
	e := sim.NewEngine()
	geo := nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 2, PlanesPerDie: 2,
		BlocksPerPlane: 64, PagesPerBlock: 32, PageSize: 4096,
	}
	tim := nand.Timing{
		ReadPage: 50 * sim.Microsecond, ProgramPage: 500 * sim.Microsecond,
		EraseBlock: 3 * sim.Millisecond, CmdOverhead: sim.Microsecond, ChannelMBps: 400,
	}
	arr, err := nand.New(e, geo, tim)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := ftl.DefaultConfig()
	fcfg.UnitSize = unit
	fcfg.OverProvision = 0.15
	fcfg.Parallelism = 4
	f, err := ftl.New(e, arr, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := ssd.DefaultConfig()
	dcfg.DeallocatorPeriod = 0
	dcfg.CacheBytes = 1 << 20
	d, err := ssd.New(e, f, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func testLayout(t *testing.T, dev *ssd.Device, keys int64, recSize int, slotAlign int64) *Layout {
	t.Helper()
	l, err := NewLayout(dev.LogicalBytes(), keys, workload.FixedSizer{Size: recSize}, 1<<20, slotAlign)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// runProc executes fn as a simulated process and drives the engine until it
// finishes.
func runProc(e *sim.Engine, fn func(p *sim.Proc)) {
	done := false
	e.Go("test", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	for !done {
		e.RunUntil(e.Now() + 50*sim.Millisecond)
	}
}

func TestJournalConventionalLayout(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 512, 512)
	j := newJournal(e, dev, l, false, 16, 0.85)

	e1, f1 := j.Append(0, 2, 500)
	e2, f2 := j.Append(1, 2, 300)
	e.Run()
	if !f1.Done() || !f2.Done() {
		t.Fatal("commits never completed")
	}
	if !e1.committed || !e2.committed {
		t.Error("entries not marked committed")
	}
	// contiguous: header(16)+500 then header+300
	if e1.off != 16 {
		t.Errorf("e1.off = %d, want 16", e1.off)
	}
	if e1.stored != 516 || e2.stored != 316 {
		t.Errorf("stored = %d,%d", e1.stored, e2.stored)
	}
	if e2.off != 516+16 {
		t.Errorf("e2.off = %d, want 532", e2.off)
	}
	if j.UsedBytes() != 832 {
		t.Errorf("UsedBytes = %d", j.UsedBytes())
	}
	st := j.Stats()
	if st.Logs != 2 || st.PayloadBytes != 800 || st.StoredBytes != 832 {
		t.Errorf("stats = %+v", st)
	}
}

func TestJournalAlignedLayoutClasses(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 4096, 512)
	j := newJournal(e, dev, l, true, 0, 0.85)

	// Algorithm 2 size classes at unit 512: 128/256/384/512.
	cases := []struct {
		payload    int
		wantStored int
		wantType   LogType
	}{
		{100, 128, LogMerged},
		{128, 128, LogMerged},
		{200, 256, LogMerged},
		{400, 512, LogFull},
		{512, 512, LogFull},
	}
	var entries []*jmtEntry
	for i, c := range cases {
		en, _ := j.Append(int64(i), 2, c.payload)
		entries = append(entries, en)
		_ = c
	}
	e.Run()
	for i, c := range cases {
		if entries[i].stored != c.wantStored {
			t.Errorf("payload %d: stored = %d, want %d", c.payload, entries[i].stored, c.wantStored)
		}
		if entries[i].typ != c.wantType {
			t.Errorf("payload %d: type = %v, want %v", c.payload, entries[i].typ, c.wantType)
		}
	}
	// Every FULL entry must be unit-aligned.
	for _, en := range entries {
		if en.typ == LogFull && en.off%512 != 0 {
			t.Errorf("FULL log at unaligned offset %d", en.off)
		}
	}
	// Merged partials pack into shared sectors. The first append commits
	// alone (group commit starts immediately when idle); the remaining
	// logs form one batch, whose partials (128 and 256 bytes stored)
	// share a sector.
	if entries[1].off/512 != entries[2].off/512 {
		t.Error("partial logs not packed into one sector")
	}
	if entries[2].off != entries[1].off+128 {
		t.Errorf("second partial at %d, want %d", entries[2].off, entries[1].off+128)
	}
	if j.Stats().MergedUnits == 0 {
		t.Error("no merged units counted")
	}
}

func TestJournalAlignedCompression(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 4096, 512)
	j := newJournal(e, dev, l, true, 0, 0.5)
	en, _ := j.Append(0, 2, 2000) // 2000×0.5 = 1000 → 1024 stored
	e.Run()
	if en.stored != 1024 {
		t.Errorf("compressed stored = %d, want 1024", en.stored)
	}
	if en.typ != LogFull {
		t.Errorf("compressed log type = %v", en.typ)
	}
	if j.Stats().Compressed != 1 {
		t.Error("compression not counted")
	}
}

func TestJournalSpaceOverheadAlignedVsConventional(t *testing.T) {
	// Aligned journaling pays padding; conventional pays headers. For
	// 100-byte values padding dominates.
	e1, dev1 := newStack(t, 512)
	l1 := testLayout(t, dev1, 100, 4096, 512)
	ja := newJournal(e1, dev1, l1, true, 0, 0.85)
	e2, dev2 := newStack(t, 512)
	l2 := testLayout(t, dev2, 100, 4096, 512)
	jc := newJournal(e2, dev2, l2, false, 16, 0.85)
	for i := 0; i < 50; i++ {
		ja.Append(int64(i), 2, 100)
		jc.Append(int64(i), 2, 100)
	}
	e1.Run()
	e2.Run()
	if ja.Stats().SpaceOverhead() <= jc.Stats().SpaceOverhead() {
		t.Errorf("aligned overhead %.3f should exceed conventional %.3f for tiny values",
			ja.Stats().SpaceOverhead(), jc.Stats().SpaceOverhead())
	}
	// But both overheads stay bounded (< 2x for 100-byte logs: 128-class).
	if ja.Stats().SpaceOverhead() > 1.5 {
		t.Errorf("aligned overhead %.3f implausibly high", ja.Stats().SpaceOverhead())
	}
}

func TestJournalGroupCommitBatches(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 512, 512)
	j := newJournal(e, dev, l, false, 16, 0.85)
	// Appending many logs without running the engine: the first starts a
	// commit; the rest buffer into one subsequent batch.
	var futs []*sim.Future
	for i := 0; i < 20; i++ {
		_, f := j.Append(int64(i%10), int64(i), 200)
		futs = append(futs, f)
	}
	e.Run()
	for i, f := range futs {
		if !f.Done() {
			t.Fatalf("log %d never committed", i)
		}
	}
	st := j.Stats()
	if st.Commits > 3 {
		t.Errorf("Commits = %d, want <= 3 (group commit)", st.Commits)
	}
	// JMT: 10 keys, 20 entries, 10 live.
	if j.JMT().Len() != 20 || j.JMT().Live() != 10 {
		t.Errorf("JMT len/live = %d/%d", j.JMT().Len(), j.JMT().Live())
	}
}

func TestJournalCutForCheckpoint(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 512, 512)
	j := newJournal(e, dev, l, false, 16, 0.85)

	for i := 0; i < 10; i++ {
		j.Append(int64(i), 2, 300)
	}
	// Cut while commits are still in flight.
	var snap ckptSnapshot
	runProc(e, func(p *sim.Proc) {
		snap = j.CutForCheckpoint(p)
	})
	if snap.jmt.Len() != 10 {
		t.Errorf("snapshot has %d entries, want 10", snap.jmt.Len())
	}
	for _, en := range snap.jmt.Entries() {
		if !en.committed {
			t.Error("snapshot contains uncommitted entry after cut")
		}
		if en.off < snap.used+l.JournalStart(snap.half) == false && en.off >= l.JournalStart(snap.half)+snap.used {
			t.Errorf("entry offset %d outside old half usage %d", en.off, snap.used)
		}
	}
	if snap.half != 0 || j.active != 1 {
		t.Errorf("halves not rotated: snap.half=%d active=%d", snap.half, j.active)
	}
	if j.head != 0 {
		t.Errorf("new half head = %d, want 0", j.head)
	}
	if j.JMT().Len() != 0 {
		t.Error("new JMT not empty")
	}
	// Appends after the cut land in the new half.
	en, f := j.Append(50, 2, 300)
	e.Run()
	if !f.Done() {
		t.Fatal("post-cut commit never completed")
	}
	if en.off < l.JournalStart(1) {
		t.Errorf("post-cut entry at %d, not in half 1", en.off)
	}
	if j.Stats().HalfSwitches != 1 {
		t.Errorf("HalfSwitches = %d", j.Stats().HalfSwitches)
	}
}

func TestJournalCutUnderLoad(t *testing.T) {
	// The cut must complete even while writers keep appending — the
	// livelock this design exists to prevent.
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 1000, 512, 512)
	j := newJournal(e, dev, l, false, 16, 0.85)

	stop := false
	for w := 0; w < 4; w++ {
		w := w
		e.Go("writer", func(p *sim.Proc) {
			for i := 0; !stop && i < 10000; i++ {
				_, f := j.Append(int64((w*250+i)%1000), int64(i), 300)
				p.Wait(f)
			}
		})
	}
	cutDone := false
	e.Go("cutter", func(p *sim.Proc) {
		p.Sleep(5 * sim.Millisecond)
		j.CutForCheckpoint(p)
		cutDone = true
		stop = true
	})
	for !cutDone {
		e.RunUntil(e.Now() + 10*sim.Millisecond)
		if e.Now() > 10*sim.Second {
			t.Fatal("cut did not complete under load (livelock)")
		}
	}
}

func TestWouldOverflow(t *testing.T) {
	e, dev := newStack(t, 512)
	l, err := NewLayout(dev.LogicalBytes(), 10, workload.FixedSizer{Size: 512}, 1<<16, 512)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(e, dev, l, false, 16, 0.85)
	if j.WouldOverflow(512) {
		t.Error("empty journal reports overflow")
	}
	// Fill close to the 64 KB half.
	for i := 0; i < 100; i++ {
		j.Append(int64(i%10), int64(i), 512)
		e.Run()
	}
	if !j.WouldOverflow(16384) {
		t.Errorf("nearly full half (used %d of %d) does not report overflow",
			j.UsedBytes(), l.JournalHalfBytes)
	}
}

// pendingSum recomputes, from the buffered batch, the bound the journal
// keeps as a running sum in pendingBytes.
func pendingSum(j *journal) int64 {
	var sum int64
	for _, e := range j.pending {
		sum += j.logBound(e.payload)
	}
	return sum
}

func TestJournalPendingBytes(t *testing.T) {
	e, dev := newStack(t, 512)
	l := testLayout(t, dev, 100, 4096, 512)
	j := newJournal(e, dev, l, true, 0, 0.85)
	check := func(when string) {
		t.Helper()
		if got, want := j.pendingBytes, pendingSum(j); got != want {
			t.Fatalf("after %s: pendingBytes %d, recomputed %d", when, got, want)
		}
	}
	for i := 0; i < 10; i++ {
		j.Append(int64(i), 2, 100+i*300)
		check("append")
	}
	if len(j.pending) == 0 {
		t.Fatal("no logs buffered behind the in-flight commit")
	}
	e.Run()
	check("commit")
	if len(j.pending) != 0 {
		t.Fatalf("%d logs still pending after the commits drained", len(j.pending))
	}
	for i := 0; i < 10; i++ {
		j.Append(int64(i), 3, 700)
	}
	runProc(e, func(p *sim.Proc) {
		j.CutForCheckpoint(p)
		check("cut")
		j.Append(1, 4, 200)
		check("append after cut")
	})
	e.Run()
	check("commit after cut")

	// Snapshot restore drops whatever the target engine had buffered.
	e1, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e1, func(p *sim.Proc) { en.Update(p, 7, 512) })
	st, err := en.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, en2 := newTestEngine(t, StrategyCheckIn, nil)
	en2.Load()
	en2.jr.Append(3, 2, 512)
	en2.jr.Append(4, 2, 512)
	if err := en2.Restore(st); err != nil {
		t.Fatal(err)
	}
	j = en2.jr
	check("restore")
}
