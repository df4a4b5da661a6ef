package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Config parameterizes the storage engine.
type Config struct {
	Strategy Strategy

	// Keys and Sizer define the record population.
	Keys  int64
	Sizer workload.Sizer

	// JournalHalfBytes is the capacity of each journal half (the paper's
	// journal-file cap: checkpointing triggers before a half fills).
	JournalHalfBytes int64

	// CheckpointInterval triggers periodic checkpoints (60 s in the
	// paper; experiments scale it to the simulated run length).
	CheckpointInterval sim.VTime

	// JournalSoftFrac triggers an early checkpoint when the active half
	// passes this fill fraction.
	JournalSoftFrac float64

	// LockDuringCheckpoint stalls query admission while a checkpoint
	// runs — the paper's method for measuring pure checkpointing time.
	LockDuringCheckpoint bool

	// InlineHeaderBytes is the per-log header of the conventional journal
	// format.
	InlineHeaderBytes int64

	// CompressRatio models Algorithm 2's compression of logs larger than
	// the mapping unit.
	CompressRatio float64

	// Strategy tuning knobs.
	CkptReadWindow int // baseline: in-flight reads/writes
	CkptCoWWindow  int // ISC-A: in-flight CoW commands
	MultiCoWBatch  int // ISC-B: pairs per command
	CkptCmdBatch   int // ISC-C / Check-In: JMT entries per command

	// HostIOOverhead is the host-side software cost of issuing one block
	// I/O (syscall + block layer + driver). It is what makes per-log host
	// round trips expensive and function offloading attractive (Fig. 4).
	HostIOOverhead sim.VTime

	// HostCacheEntries bounds an LRU of record values resident in host
	// memory (the memtable / block cache of a real engine): reads of
	// cached keys skip the device entirely. 0 disables the cache, which
	// keeps the paper's device-centric read model; enable it to study how
	// host caching shifts the bottleneck.
	HostCacheEntries int

	// Tracer, when non-nil, receives checkpoint and journal events.
	Tracer *trace.Tracer

	// Injector, when set, receives crash-injection hits at the engine-level
	// sites (journal append/commit, checkpoint cut/apply). Nil in
	// production.
	Injector *inject.Injector

	// AdaptiveLiveBudget, when positive, adds a bounded-work checkpoint
	// policy on top of the periodic interval: a checkpoint triggers as
	// soon as the JMT accumulates this many live (latest-version)
	// entries, capping per-checkpoint work regardless of skew. This is an
	// extension beyond the paper's fixed-interval scheduler, motivated by
	// its observation that the live-entry count — not the journal size —
	// determines checkpoint cost.
	AdaptiveLiveBudget int

	Seed int64
}

// DefaultConfig returns engine defaults mirroring Table I's DBMS settings,
// scaled to simulator-friendly sizes.
func DefaultConfig() Config {
	return Config{
		Strategy:           StrategyCheckIn,
		Keys:               50_000,
		Sizer:              workload.NewMixSizer("default-small", []int{128, 256, 384, 512, 1024, 2048}, []int{2, 2, 1, 3, 1, 1}),
		JournalHalfBytes:   32 << 20,
		CheckpointInterval: sim.Second,
		JournalSoftFrac:    0.7,
		InlineHeaderBytes:  16,
		CompressRatio:      0.85,
		CkptReadWindow:     1024,
		CkptCoWWindow:      128,
		MultiCoWBatch:      64,
		CkptCmdBatch:       128,
		HostIOOverhead:     10 * sim.Microsecond,
		Seed:               1,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Strategy >= numStrategies {
		return fmt.Errorf("core: unknown strategy %d", c.Strategy)
	}
	if c.Keys < 1 {
		return fmt.Errorf("core: Keys %d must be >= 1", c.Keys)
	}
	if c.Sizer == nil {
		return fmt.Errorf("core: Sizer is required")
	}
	if c.JournalHalfBytes < 1<<16 {
		return fmt.Errorf("core: JournalHalfBytes %d too small", c.JournalHalfBytes)
	}
	if c.JournalSoftFrac <= 0 || c.JournalSoftFrac >= 1 {
		return fmt.Errorf("core: JournalSoftFrac %v out of (0,1)", c.JournalSoftFrac)
	}
	if c.CompressRatio <= 0 || c.CompressRatio > 1 {
		return fmt.Errorf("core: CompressRatio %v out of (0,1]", c.CompressRatio)
	}
	if c.CheckpointInterval == 0 {
		return fmt.Errorf("core: CheckpointInterval must be positive")
	}
	return nil
}

// Engine is the Check-In storage engine bound to one simulated device.
type Engine struct {
	eng *sim.Engine
	dev *ssd.Device
	cfg Config

	layout *Layout
	jr     *journal
	ckpt   checkpointer

	// version truth: in-memory, durable (journaled+committed), and
	// checkpointed (data area) — the recovery model.
	version []int64
	durable []int64
	ckpted  []int64
	deleted []bool

	// checkpoint state
	ckptRunning  bool
	ckptEpoch    uint64
	ckptDoneFut  *sim.Future
	ckptSnapshot *JMT // old-half JMT readable while its checkpoint runs
	remapTotals  ssd.RemapStats

	// query gate for LockDuringCheckpoint
	gateClosed bool
	gateOpen   *sim.Future

	hostCache *keyLRU

	metrics *Metrics
	rng     *sim.RNG
}

// NewEngine builds an engine over dev. The device's FTL mapping unit must
// already reflect the strategy (see Strategy.DefaultMappingUnit).
func NewEngine(eng *sim.Engine, dev *ssd.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	unit := int64(dev.FTL().UnitSize())
	slotAlign := int64(hostSector)
	if cfg.Strategy.UsesRemap() && unit > slotAlign {
		// remapping requires unit-aligned record slots
		slotAlign = unit
	}
	layout, err := NewLayout(dev.LogicalBytes(), cfg.Keys, cfg.Sizer, cfg.JournalHalfBytes, slotAlign)
	if err != nil {
		return nil, err
	}
	en := &Engine{
		eng:     eng,
		dev:     dev,
		cfg:     cfg,
		layout:  layout,
		version: make([]int64, cfg.Keys),
		durable: make([]int64, cfg.Keys),
		ckpted:  make([]int64, cfg.Keys),
		deleted: make([]bool, cfg.Keys),
		metrics: NewMetrics(),
		rng:     sim.NewRNG(cfg.Seed),
	}
	header := cfg.InlineHeaderBytes
	if cfg.Strategy.SectorAligned() {
		header = 0 // Check-In keeps log descriptors in the JMT, not inline
	}
	en.jr = newJournal(eng, dev, layout, cfg.Strategy.SectorAligned(), header, cfg.CompressRatio)
	en.jr.tracer = cfg.Tracer
	en.jr.injector = cfg.Injector
	if cfg.HostCacheEntries > 0 {
		en.hostCache = newKeyLRU(cfg.HostCacheEntries)
	}
	en.ckpt = newCheckpointer(cfg.Strategy, cfg)
	return en, nil
}

// Layout exposes the space layout (reporting, tests).
func (en *Engine) Layout() *Layout { return en.layout }

// Device exposes the underlying device (reporting).
func (en *Engine) Device() *ssd.Device { return en.dev }

// Sim exposes the simulation engine.
func (en *Engine) Sim() *sim.Engine { return en.eng }

// Metrics exposes the live metrics collector.
func (en *Engine) Metrics() *Metrics { return en.metrics }

// JournalStats returns journaling counters.
func (en *Engine) JournalStats() JournalStats { return en.jr.Stats() }

// RemapTotals returns accumulated remap results across checkpoints.
func (en *Engine) RemapTotals() ssd.RemapStats { return en.remapTotals }

// SetCommitHook installs fn to observe every journal log the instant its
// group commit becomes durable (before the waiting client wakes). The
// crash-consistency reference model (internal/check) uses it to track the
// committed prefix.
func (en *Engine) SetCommitHook(fn func(key, version int64)) { en.jr.onCommit = fn }

// ---------------------------------------------------------------------------
// load phase

// Load bulk-populates the data area with every record at version 1 using
// large sequential writes, the standard YCSB load phase. It must run before
// queries; it is excluded from metrics (snapshots are taken at run start).
func (en *Engine) Load() {
	const chunk = 1 << 20
	done := false
	en.eng.Go("load", func(p *sim.Proc) {
		// Back-pressure via periodic flushes: a write's future only
		// completes once its page programs, which for sub-page mapping
		// units may require the flush that closes the partial tail page.
		issued := 0
		for off := en.layout.DataStart; off < en.layout.DataEnd; off += chunk {
			n := int64(chunk)
			if off+n > en.layout.DataEnd {
				n = en.layout.DataEnd - off
			}
			en.dev.Write(off, n, ssd.AreaData)
			if issued++; issued%16 == 0 {
				p.Wait(en.dev.Flush(ssd.AreaData))
			}
		}
		p.Wait(en.dev.Flush(ssd.AreaData))
		done = true
	})
	for !done {
		en.eng.RunUntil(en.eng.Now() + 100*sim.Millisecond)
	}
	for k := range en.version {
		en.version[k] = 1
		en.durable[k] = 1
		en.ckpted[k] = 1
	}
}

// ---------------------------------------------------------------------------
// query paths (called from client processes)

// gate blocks the process while query admission is locked (checkpoint
// locking mode).
func (en *Engine) gate(p *sim.Proc) {
	for en.gateClosed {
		p.Wait(en.gateOpen)
	}
}

// Get executes a read query: the newest version lives either in the active
// journal, in the journal half being checkpointed, or in the data area.
func (en *Engine) Get(p *sim.Proc, key int64) {
	en.gate(p)
	if en.hostCache != nil && en.hostCache.touch(key) {
		en.metrics.HostCacheHits++
		return // value resident in host memory
	}
	defer func() {
		if en.hostCache != nil {
			en.hostCache.insert(key)
		}
	}()
	if e := en.jr.JMT().Latest(key); e != nil {
		if !e.committed {
			// still in the engine's memory buffer: no device access
			return
		}
		p.Sleep(en.cfg.HostIOOverhead)
		p.Wait(en.dev.Read(e.off, int64(e.payload)))
		return
	}
	if en.ckptSnapshot != nil {
		if e := en.ckptSnapshot.Latest(key); e != nil {
			p.Sleep(en.cfg.HostIOOverhead)
			p.Wait(en.dev.Read(e.off, int64(e.payload)))
			return
		}
	}
	off, size := en.layout.Record(key)
	p.Sleep(en.cfg.HostIOOverhead)
	p.Wait(en.dev.Read(off, int64(size)))
}

// Update executes a write query: journal the new version (write-ahead) and
// wait for its group commit.
func (en *Engine) Update(p *sim.Proc, key int64, size int) {
	en.gate(p)
	if en.dev.ReadOnly() {
		// The device degraded to read-only (spare blocks exhausted): refuse
		// the write instead of journaling an update that cannot persist.
		// Reads keep being served — graceful degradation.
		en.metrics.RejectedWrites++
		return
	}
	// If the active half cannot absorb the log, stall until the running
	// checkpoint frees the alternate half (back-pressure).
	for en.jr.WouldOverflow(size) {
		fut := en.TriggerCheckpoint()
		p.Wait(fut)
	}
	en.version[key]++
	v := en.version[key]
	if en.hostCache != nil {
		en.hostCache.insert(key) // freshly written value stays in memory
	}
	_, commit := en.jr.Append(key, v, size)
	if en.jr.UsedFrac() > en.cfg.JournalSoftFrac && !en.ckptRunning {
		en.TriggerCheckpoint()
	}
	p.Wait(commit)
	if v > en.durable[key] {
		en.durable[key] = v
	}
}

// Sync blocks p until every journal log appended so far is durable — the
// write-ahead group commits drain. Update already waits for its own commit,
// so Sync matters only to callers pacing explicit durability epochs (the
// cross-engine equivalence oracle).
func (en *Engine) Sync(p *sim.Proc) {
	for en.jr.commitInFlight || len(en.jr.pending) > 0 {
		if en.jr.inFlightDone != nil {
			p.Wait(en.jr.inFlightDone)
		} else {
			p.Sleep(sim.Microsecond) // batch buffered behind a checkpoint cut
		}
	}
}

// Scan executes a range read of n consecutive records starting at key
// (YCSB-E). The data-area portion is one sequential device read; records
// whose newest version still lives in the journal are read individually.
func (en *Engine) Scan(p *sim.Proc, key int64, n int) {
	en.gate(p)
	if n < 1 {
		n = 1
	}
	if key >= en.cfg.Keys {
		key = en.cfg.Keys - 1
	}
	if key+int64(n) > en.cfg.Keys {
		n = int(en.cfg.Keys - key)
	}
	startOff, _ := en.layout.Record(key)
	lastOff, lastSize := en.layout.Record(key + int64(n) - 1)
	p.Sleep(en.cfg.HostIOOverhead)
	futs := []*sim.Future{en.dev.Read(startOff, lastOff+int64(lastSize)-startOff)}
	for k := key; k < key+int64(n); k++ {
		if e := en.jr.JMT().Latest(k); e != nil && e.committed {
			futs = append(futs, en.dev.Read(e.off, int64(e.payload)))
		}
	}
	p.WaitAll(futs)
}

// tombstoneBytes is the journaled size of a deletion marker.
const tombstoneBytes = 16

// Delete journals a tombstone for key: deletions ride the same write-ahead
// and checkpoint paths as updates, with a minimal payload.
func (en *Engine) Delete(p *sim.Proc, key int64) {
	en.Update(p, key, tombstoneBytes)
	en.deleted[key] = true
}

// ---------------------------------------------------------------------------
// checkpointing

// CheckpointRunning reports whether a checkpoint is in progress.
func (en *Engine) CheckpointRunning() bool { return en.ckptRunning }

// CheckpointEpoch advances at every checkpoint start and end.
func (en *Engine) CheckpointEpoch() uint64 { return en.ckptEpoch }

// BackgroundBusy reports a running checkpoint, the engine's only
// background work.
func (en *Engine) BackgroundBusy() bool { return en.ckptRunning }

// LiveEntries returns the active JMT's live-entry count.
func (en *Engine) LiveEntries() int { return en.jr.JMT().Live() }

// TriggerCheckpoint starts a checkpoint unless one is already running, and
// returns a future completing when the (possibly already running) checkpoint
// finishes.
func (en *Engine) TriggerCheckpoint() *sim.Future {
	if en.ckptRunning {
		return en.ckptDoneFut
	}
	en.ckptRunning = true
	en.ckptEpoch++
	en.ckptDoneFut = sim.NewFuture(en.eng)
	done := en.ckptDoneFut
	if en.cfg.LockDuringCheckpoint {
		en.gateClosed = true
		en.gateOpen = sim.NewFuture(en.eng)
	}
	en.eng.Go("checkpoint", func(p *sim.Proc) {
		start := p.Now()
		// Publish the snapshot BEFORE the cut: CutForCheckpoint rotates the
		// active JMT synchronously but then yields waiting for the old
		// half's tail flush, and during those waits the old half's
		// committed logs must stay visible to Get() and to recovery — they
		// are the newest durable versions until the checkpoint applies.
		// (Assigning the snapshot only after the cut returned left a window
		// where they were invisible to both; the ckpt-cut injection site
		// caught it.)
		en.ckptSnapshot = en.jr.JMT()
		snap := en.jr.CutForCheckpoint(p)
		en.cfg.Tracer.Emit(start, trace.KindCheckpointBegin, int64(snap.jmt.Live()),
			fmt.Sprintf("entries=%d used=%dKB", snap.jmt.Len(), snap.used>>10))
		en.metrics.noteLiveRatio(snap.jmt.LiveRatio())
		if snap.jmt.Live() > 0 {
			en.ckpt.Run(p, en, snap)
			// apply: the data area now holds the checkpointed versions
			for _, e := range snap.jmt.Entries() {
				if !e.old && e.version > en.ckpted[e.key] {
					en.ckpted[e.key] = e.version
				}
			}
			en.cfg.Injector.Hit(inject.SiteCheckpointApply)
			// the journal half is no longer needed: deallocate it
			if snap.used > 0 {
				trimLen := roundUp(snap.used, int64(en.dev.FTL().UnitSize()))
				p.Wait(en.dev.Deallocate(en.layout.JournalStart(snap.half), trimLen))
			}
		}
		en.ckptSnapshot = nil
		en.metrics.noteCheckpoint(p.Now() - start)
		en.cfg.Tracer.Emit(p.Now(), trace.KindCheckpointEnd, int64(p.Now()-start), "")
		en.ckptRunning = false
		en.ckptEpoch++
		if en.cfg.LockDuringCheckpoint {
			en.gateClosed = false
			en.gateOpen.Complete()
		}
		done.Complete()
	})
	return done
}

// ---------------------------------------------------------------------------
// workload runner

// Run executes the workload to completion under the shared driver and
// returns the metrics. The engine may be Run multiple times; metrics cover
// only the last run.
func (en *Engine) Run(spec RunSpec) (*Metrics, error) {
	en.metrics = NewMetrics()
	if err := Drive(en, Stack{Sim: en.eng, Dev: en.dev, Journal: en.jr.Stats,
		Keys: en.cfg.Keys, Sizer: en.cfg.Sizer, RNG: en.rng,
		CheckpointInterval: en.cfg.CheckpointInterval,
		AdaptiveLiveBudget: en.cfg.AdaptiveLiveBudget}, en.metrics, spec); err != nil {
		return nil, err
	}
	return en.metrics, nil
}

// ---------------------------------------------------------------------------
// crash recovery

// RecoveryReport describes a simulated crash-recovery pass.
type RecoveryReport struct {
	Recovered        []int64 // per-key recovered version
	ReplayedLogs     int
	FromCheckpoint   int64 // keys restored purely from the last checkpoint
	RecoveryTime     sim.VTime
	JournalBytesRead int64
}

// recoverReport is the pure core of SimulateRecovery: what a restarted
// instance would reconstruct from the last checkpoint plus committed journal
// logs, with no simulated time charged. Safe to call from inside an engine
// event (the crash-injection harness does).
func (en *Engine) recoverReport() *RecoveryReport {
	rep := &RecoveryReport{Recovered: make([]int64, en.cfg.Keys)}
	copy(rep.Recovered, en.ckpted)
	for k := range rep.Recovered {
		if rep.Recovered[k] > 0 {
			rep.FromCheckpoint++
		}
	}
	replay := func(t *JMT) {
		if t == nil {
			return
		}
		for _, e := range t.Entries() {
			if !e.committed {
				continue // lost with the crash
			}
			rep.ReplayedLogs++
			rep.JournalBytesRead += int64(e.stored)
			if e.version > rep.Recovered[e.key] {
				rep.Recovered[e.key] = e.version
			}
		}
	}
	// A half being checkpointed still has its logs on flash until the
	// deallocate lands, so both tables replay.
	replay(en.ckptSnapshot)
	replay(en.jr.JMT())
	return rep
}

// RecoveredVersions returns the per-key versions a crash at the current
// instant would recover to (host replay), without modeling recovery time.
func (en *Engine) RecoveredVersions() []int64 {
	return en.recoverReport().Recovered
}

// SimulateRecovery models a crash at the current instant: all volatile
// state (memtable, uncommitted logs) is lost; the data structure is rebuilt
// from the last checkpoint plus committed journal logs (Section III-G).
// The engine itself is left untouched — the report is what a restarted
// instance would reconstruct.
func (en *Engine) SimulateRecovery() *RecoveryReport {
	rep := en.recoverReport()

	// Model the recovery read time: the journal is scanned sequentially.
	start := en.eng.Now()
	done := false
	var finished sim.VTime
	en.eng.Go("recovery", func(p *sim.Proc) {
		const chunk = 256 << 10
		for off := int64(0); off < rep.JournalBytesRead; off += chunk {
			n := int64(chunk)
			if off+n > rep.JournalBytesRead {
				n = rep.JournalBytesRead - off
			}
			half := en.layout.JournalStart(en.jr.active)
			end := half + off + n
			if end > half+en.layout.JournalHalfBytes {
				break
			}
			p.Wait(en.dev.Read(half+off, n))
		}
		finished = p.Now()
		done = true
	})
	for !done {
		en.eng.RunUntil(en.eng.Now() + 10*sim.Millisecond)
	}
	rep.RecoveryTime = finished - start
	return rep
}

// DurableVersions returns a copy of the per-key durable versions — what a
// correct recovery must reproduce.
func (en *Engine) DurableVersions() []int64 {
	out := make([]int64, len(en.durable))
	copy(out, en.durable)
	return out
}

// InMemoryVersions returns the per-key in-memory (volatile) versions.
func (en *Engine) InMemoryVersions() []int64 {
	out := make([]int64, len(en.version))
	copy(out, en.version)
	return out
}
