// Package lsm implements an LSM-tree host engine over the simulated
// Check-In SSD: a write-ahead log with group commit, an in-memory memtable,
// sorted runs flushed to flash, and a Director/Executor compaction layer
// with leveled and tiered policies. It is the second registered backend of
// the checkin.HostEngine interface — the journal+JMT engine (internal/core)
// being the first — and exists so in-storage checkpointing can be evaluated
// against the flash-friendly sequential writes of compaction.
//
// The facade follows the kevo engine design (storage, transaction and
// compaction concerns behind one coordinating type); the compaction split
// follows the amethystdb Director (policy: pick what to merge) / Executor
// (mechanism: k-way merge, install, delete inputs) separation.
//
// Check-In's five checkpoint strategies apply to the memtable flush — the
// LSM's checkpoint analogue. The flushed run's layout is identical across
// strategies; only the transfer differs:
//
//   - Baseline writes the run from host memory with large sequential writes
//     (the memtable already holds the values);
//   - ISC-A / ISC-B copy each record device-side from its WAL location with
//     CoW / multi-CoW commands;
//   - ISC-C / Check-In remap the WAL records onto the run's slots with
//     checkpoint-request commands — no second flash program at all. Whether
//     a record remaps cleanly or degrades to a read-merge-write depends on
//     the WAL record format (sector-aligned under Check-In, dense
//     conventional otherwise), exactly as in the journal engine.
//
// Compaction, by contrast, is always host-side sequential I/O: runs are
// streamed to the host, merged, and written back — the traffic shape the
// compaction experiment compares the strategies under.
//
// Durability truth: a version is durable iff its WAL group commit completed
// (tracked per record), and recovery folds the last durably-published
// manifest's runs with the committed WAL records above the manifest floor.
// The crash sites (wal-append, wal-commit, mem-flush, compact-install,
// manifest-publish) pin each transition.
package lsm

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Policy names a compaction policy.
const (
	PolicyLeveled = "leveled"
	PolicyTiered  = "tiered"
)

// maxLevels bounds the level/tier hierarchy; the bottom level holds the
// load-phase base run and major-compaction outputs.
const maxLevels = 8

// baseLevel is the bottom of the hierarchy.
const baseLevel = maxLevels - 1

// Config parameterizes the LSM engine.
type Config struct {
	Strategy core.Strategy

	Keys  int64
	Sizer workload.Sizer

	// WALHalfBytes is the capacity of each WAL half; a memtable flush seals
	// the active half and the alternate takes over, so a flush triggers at
	// the latest when the active half passes WALSoftFrac.
	WALHalfBytes int64
	WALSoftFrac  float64

	// MemtableEntries triggers a flush when the memtable holds this many
	// distinct keys (0 → 4096).
	MemtableEntries int

	// Policy selects the compaction policy: "leveled" (default) or "tiered".
	Policy string

	// CheckpointInterval paces periodic flush+publish epochs, mirroring the
	// journal engine's checkpoint scheduler.
	CheckpointInterval sim.VTime

	// LockDuringCheckpoint stalls query admission while a flush epoch runs.
	LockDuringCheckpoint bool

	// InlineHeaderBytes is the per-record header of the conventional WAL
	// format (sector-aligned mode keeps descriptors host-side).
	InlineHeaderBytes int64

	// Strategy tuning knobs, same semantics as the journal engine's.
	CkptCoWWindow int // ISC-A: in-flight CoW commands
	MultiCoWBatch int // ISC-B: pairs per command
	CkptCmdBatch  int // ISC-C / Check-In: remap entries per command

	// HostIOOverhead is the host software cost of issuing one block I/O.
	HostIOOverhead sim.VTime

	// AdaptiveLiveBudget, when positive, flushes as soon as the memtable
	// accumulates this many distinct dirty keys.
	AdaptiveLiveBudget int

	Tracer   *trace.Tracer
	Injector *inject.Injector
	Seed     int64
}

// DefaultConfig returns LSM defaults aligned with core.DefaultConfig.
func DefaultConfig() Config {
	return Config{
		Strategy:           core.StrategyCheckIn,
		Keys:               50_000,
		Sizer:              workload.NewMixSizer("default-small", []int{128, 256, 384, 512, 1024, 2048}, []int{2, 2, 1, 3, 1, 1}),
		WALHalfBytes:       32 << 20,
		WALSoftFrac:        0.7,
		MemtableEntries:    4096,
		Policy:             PolicyLeveled,
		CheckpointInterval: sim.Second,
		InlineHeaderBytes:  16,
		CkptCoWWindow:      128,
		MultiCoWBatch:      64,
		CkptCmdBatch:       128,
		HostIOOverhead:     10 * sim.Microsecond,
		Seed:               1,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.Keys < 1 {
		return fmt.Errorf("lsm: need at least one key")
	}
	if c.Sizer == nil {
		return fmt.Errorf("lsm: Sizer is required")
	}
	if c.WALHalfBytes < 1<<16 || c.WALHalfBytes%sector != 0 {
		return fmt.Errorf("lsm: WALHalfBytes %d must be a sector multiple >= 64KiB", c.WALHalfBytes)
	}
	if c.WALSoftFrac <= 0 || c.WALSoftFrac >= 1 {
		return fmt.Errorf("lsm: WALSoftFrac %v out of (0,1)", c.WALSoftFrac)
	}
	if c.CheckpointInterval == 0 {
		return fmt.Errorf("lsm: CheckpointInterval must be positive")
	}
	switch c.Policy {
	case "", PolicyLeveled, PolicyTiered:
	default:
		return fmt.Errorf("lsm: unknown compaction policy %q (want leveled or tiered)", c.Policy)
	}
	return nil
}

// Stats accumulates LSM-specific counters.
type Stats struct {
	Flushes          uint64
	FlushedEntries   uint64
	FlushedBytes     uint64 // payload bytes installed by flushes
	Compactions      uint64
	MajorCompactions uint64
	CompactionRead   uint64 // host-link bytes compaction read
	CompactionWrite  uint64 // host-link bytes compaction wrote
	RunsCreated      uint64
	RunsDeleted      uint64
	ManifestWrites   uint64
}

// memEntry is the memtable's value cell: the newest version of a key plus
// the WAL record that made it durable (the flush strategies that copy or
// remap device-side need the record's WAL location).
type memEntry struct {
	version int64
	size    int
	rec     *walRec
}

// Engine is the LSM host engine bound to one simulated device.
type Engine struct {
	eng *sim.Engine
	dev *ssd.Device
	cfg Config

	unit          int64 // FTL mapping unit
	manifestStart int64
	manifestSlot  int64
	runArea       extent
	alloc         *allocator

	w        *wal
	mem      map[int64]*memEntry
	imm      map[int64]*memEntry // sealed memtable while its flush runs
	memLimit int

	levels    [maxLevels][]*run
	nextRunID uint64

	// durable manifest: the run set and WAL floor recovery starts from.
	durableRuns  []*run
	durableFloor int64
	manifestSeq  uint64

	// walLive holds records above the durable floor (committed or not);
	// recovery replays the committed ones over the manifest's runs.
	walLive []*walRec

	// version truth, mirroring the journal engine's recovery model.
	version []int64
	durable []int64
	deleted []bool

	flushRunning bool
	ckptEpoch    uint64
	flushDone    *sim.Future

	compacting  bool
	compactDone *sim.Future
	director    *director

	gateClosed bool
	gateOpen   *sim.Future

	onCommit func(key, version int64)

	remapTotals ssd.RemapStats
	metrics     *core.Metrics
	st          Stats
	rng         *sim.RNG
}

// New builds an LSM engine over dev. The device's FTL mapping unit must
// already reflect the strategy (see core.Strategy.DefaultMappingUnit).
func New(eng *sim.Engine, dev *ssd.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyLeveled
	}
	if cfg.MemtableEntries <= 0 {
		cfg.MemtableEntries = 4096
	}
	en := &Engine{
		eng:      eng,
		dev:      dev,
		cfg:      cfg,
		unit:     int64(dev.FTL().UnitSize()),
		memLimit: cfg.MemtableEntries,
		mem:      make(map[int64]*memEntry),
		version:  make([]int64, cfg.Keys),
		durable:  make([]int64, cfg.Keys),
		deleted:  make([]bool, cfg.Keys),
		metrics:  core.NewMetrics(),
		rng:      sim.NewRNG(cfg.Seed),
	}
	// Space layout: two WAL halves, two manifest slots, then the run area.
	en.manifestStart = 2 * cfg.WALHalfBytes
	en.manifestSlot = 256 << 10
	runStart := en.manifestStart + 2*en.manifestSlot
	runEnd := dev.LogicalBytes()
	if runEnd <= runStart {
		return nil, fmt.Errorf("lsm: device exports %d bytes, smaller than WAL+manifest (%d)", runEnd, runStart)
	}
	en.runArea = extent{off: runStart, len: runEnd - runStart}
	en.alloc = newAllocator(en.runArea)

	// The base run (every key at version 1) must fit with room for flush
	// runs and a compaction's transient output.
	var basePayload int64
	for k := int64(0); k < cfg.Keys; k++ {
		basePayload += roundUp(int64(cfg.Sizer.SizeOf(k)), sector)
	}
	if 3*basePayload > en.runArea.len {
		return nil, fmt.Errorf("lsm: run area %d too small for %d key bytes (need 3x headroom)", en.runArea.len, basePayload)
	}

	header := cfg.InlineHeaderBytes
	if cfg.Strategy.SectorAligned() {
		header = 0
	}
	en.w = newWAL(eng, dev, cfg.WALHalfBytes, cfg.Strategy.SectorAligned(), header)
	en.w.tracer = cfg.Tracer
	en.w.injector = cfg.Injector
	en.w.onCommit = func(r *walRec) {
		if r.version > en.durable[r.key] {
			en.durable[r.key] = r.version
		}
		if en.onCommit != nil {
			en.onCommit(r.key, r.version)
		}
	}
	en.director = newDirector(cfg.Policy, cfg.WALHalfBytes)
	return en, nil
}

// extAlign returns the run-extent alignment: whole mapping units so
// deallocating a run trims cleanly.
func (en *Engine) extAlign() int64 {
	if en.unit > sector {
		return en.unit
	}
	return sector
}

// Device exposes the underlying device.
func (en *Engine) Device() *ssd.Device { return en.dev }

// Sim exposes the simulation engine.
func (en *Engine) Sim() *sim.Engine { return en.eng }

// Metrics exposes the live metrics collector.
func (en *Engine) Metrics() *core.Metrics { return en.metrics }

// JournalStats returns the WAL's counters in the shared journaling shape.
func (en *Engine) JournalStats() core.JournalStats { return en.w.Stats() }

// RemapTotals returns accumulated remap results across flush epochs.
func (en *Engine) RemapTotals() ssd.RemapStats { return en.remapTotals }

// Stats returns LSM-specific counters.
func (en *Engine) Stats() Stats { return en.st }

// Levels reports the current run count per level (tests, reporting).
func (en *Engine) Levels() []int {
	out := make([]int, maxLevels)
	for i, l := range en.levels {
		out[i] = len(l)
	}
	return out
}

// SetCommitHook installs fn to observe every WAL record the instant its
// group commit becomes durable (the check oracle's model hook).
func (en *Engine) SetCommitHook(fn func(key, version int64)) { en.onCommit = fn }

// ---------------------------------------------------------------------------
// load phase

// Load bulk-populates the store: every key at version 1, written as one
// sorted base run with large sequential writes, then a manifest publish.
// Mirrors the journal engine's load discipline (back-pressure via periodic
// flushes; excluded from metrics).
func (en *Engine) Load() {
	entries := make([]runEntry, en.cfg.Keys)
	for k := int64(0); k < en.cfg.Keys; k++ {
		entries[k] = runEntry{key: k, version: 1, size: en.cfg.Sizer.SizeOf(k)}
	}
	done := false
	en.eng.Go("load", func(p *sim.Proc) {
		r := en.newRun(baseLevel, entries, false)
		en.writeRunSequential(p, r, ssd.AreaData)
		en.levels[baseLevel] = append(en.levels[baseLevel], r)
		en.st.RunsCreated++
		en.publishManifest(p, 0)
		done = true
	})
	for !done {
		en.eng.RunUntil(en.eng.Now() + 100*sim.Millisecond)
	}
	for k := range en.version {
		en.version[k] = 1
		en.durable[k] = 1
	}
}

// newRun allocates an extent and plans a run's layout. inCompaction guards
// the back-pressure path (a compaction cannot wait on itself).
func (en *Engine) newRun(level int, entries []runEntry, inCompaction bool) *run {
	var need int64
	for _, e := range entries {
		need += roundUp(int64(e.size), sector)
	}
	need = roundUp(need, en.extAlign())
	off, ok := en.alloc.take(need)
	if !ok {
		if inCompaction {
			panic(fmt.Sprintf("lsm: run area exhausted during compaction (%s, need %d)", en.alloc, need))
		}
		panic(fmt.Sprintf("lsm: run area exhausted (%s, need %d)", en.alloc, need))
	}
	en.nextRunID++
	r, _ := planRun(en.nextRunID, level, entries, off)
	r.ext = extent{off: off, len: need}
	return r
}

// allocatable reports whether an extent of n laid-out bytes could be taken.
func (en *Engine) allocatable(n int64) bool {
	probe := en.alloc.clone()
	_, ok := probe.take(roundUp(n, en.extAlign()))
	return ok
}

// writeRunSequential streams a run's extent to the device in large
// sequential chunks from host memory — the flash-friendly write shape LSM
// engines are built around.
func (en *Engine) writeRunSequential(p *sim.Proc, r *run, area ssd.Area) {
	const chunk = 256 << 10
	total := r.ext.len
	issued := 0
	for off := int64(0); off < total; off += chunk {
		n := int64(chunk)
		if off+n > total {
			n = total - off
		}
		p.Sleep(en.cfg.HostIOOverhead)
		en.dev.Write(r.ext.off+off, n, area)
		if issued++; issued%16 == 0 {
			p.Wait(en.dev.Flush(area))
		}
	}
	p.Wait(en.dev.Flush(area))
}

// ---------------------------------------------------------------------------
// query paths (called from client processes)

func (en *Engine) gate(p *sim.Proc) {
	for en.gateClosed {
		p.Wait(en.gateOpen)
	}
}

// Get executes a read: active memtable, then the sealed (flushing)
// memtable — both host memory — then runs newest-first. The host-resident
// run index knows which run holds the key, so exactly one device read is
// charged for an on-flash hit.
func (en *Engine) Get(p *sim.Proc, key int64) {
	en.gate(p)
	if _, ok := en.mem[key]; ok {
		return
	}
	if en.imm != nil {
		if _, ok := en.imm[key]; ok {
			return
		}
	}
	if r, i := en.findNewest(key); r != nil {
		p.Sleep(en.cfg.HostIOOverhead)
		p.Wait(en.dev.Read(r.offs[i], int64(r.sizes[i])))
	}
}

// findNewest locates the newest on-flash version of key: level 0 runs in
// reverse creation order, then down the hierarchy — upper levels shadow
// lower ones, the standard LSM read invariant.
func (en *Engine) findNewest(key int64) (*run, int) {
	for level := 0; level < maxLevels; level++ {
		rs := en.levels[level]
		for i := len(rs) - 1; i >= 0; i-- {
			if j, ok := rs[i].find(key); ok {
				return rs[i], j
			}
		}
	}
	return nil, 0
}

// Update executes a write: log to the WAL (write-ahead), install in the
// memtable, and wait for the group commit.
func (en *Engine) Update(p *sim.Proc, key int64, size int) {
	en.gate(p)
	if en.dev.ReadOnly() {
		en.metrics.RejectedWrites++
		return
	}
	// If the active WAL half cannot absorb the record, stall until the
	// running flush epoch frees the alternate half (back-pressure).
	for en.w.WouldOverflow(size) {
		p.Wait(en.TriggerCheckpoint())
	}
	en.version[key]++
	v := en.version[key]
	rec, commit := en.w.Append(key, v, size)
	en.walLive = append(en.walLive, rec)
	en.mem[key] = &memEntry{version: v, size: size, rec: rec}
	en.cfg.Injector.Hit(inject.SiteWALAppend)
	if !en.flushRunning &&
		(len(en.mem) >= en.memLimit || en.w.UsedFrac() > en.cfg.WALSoftFrac) {
		en.TriggerCheckpoint()
	}
	p.Wait(commit)
}

// Scan executes a range read of n consecutive records starting at key: one
// sequential read over the range in the bottom run, plus individual reads
// for keys whose newest version lives in an upper run (memtable hits are
// host memory).
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
	var futs []*sim.Future
	p.Sleep(en.cfg.HostIOOverhead)
	if rs := en.levels[baseLevel]; len(rs) > 0 {
		base := rs[len(rs)-1]
		if i, ok := base.find(key); ok {
			j, ok2 := base.find(key + int64(n) - 1)
			if !ok2 {
				j = len(base.keys) - 1
			}
			futs = append(futs, en.dev.Read(base.offs[i],
				base.offs[j]+int64(base.sizes[j])-base.offs[i]))
		}
	}
	for k := key; k < key+int64(n); k++ {
		if _, ok := en.mem[k]; ok {
			continue
		}
		if en.imm != nil {
			if _, ok := en.imm[k]; ok {
				continue
			}
		}
		if r, i := en.findNewest(k); r != nil && r.level < baseLevel {
			futs = append(futs, en.dev.Read(r.offs[i], int64(r.sizes[i])))
		}
	}
	p.WaitAll(futs)
}

// tombstoneBytes is the logged size of a deletion marker.
const tombstoneBytes = 16

// Delete logs a tombstone: deletions ride the same write-ahead, flush and
// compaction paths as updates (tombstones survive merges so recovered
// version truth never regresses).
func (en *Engine) Delete(p *sim.Proc, key int64) {
	en.Update(p, key, tombstoneBytes)
	en.deleted[key] = true
}

// Sync blocks p until every WAL record appended so far is durable.
func (en *Engine) Sync(p *sim.Proc) {
	for en.w.commitInFlight || len(en.w.pending) > 0 {
		if en.w.inFlightDone != nil {
			p.Wait(en.w.inFlightDone)
		} else {
			p.Sleep(sim.Microsecond) // batch buffered behind a seal
		}
	}
}

// ---------------------------------------------------------------------------
// flush epochs (the LSM's checkpoint)

// CheckpointRunning reports whether a flush epoch is in progress.
func (en *Engine) CheckpointRunning() bool { return en.flushRunning }

// CheckpointEpoch advances at every flush epoch's start and end.
func (en *Engine) CheckpointEpoch() uint64 { return en.ckptEpoch }

// BackgroundBusy reports a running flush epoch or compaction.
func (en *Engine) BackgroundBusy() bool { return en.flushRunning || en.compacting }

// LiveEntries returns the active memtable's distinct key count.
func (en *Engine) LiveEntries() int { return len(en.mem) }

// TriggerCheckpoint starts a flush epoch unless one is already running:
// seal the memtable, drain the sealed WAL half, install the sorted run via
// the configured strategy, publish the manifest, and deallocate the half.
func (en *Engine) TriggerCheckpoint() *sim.Future {
	if en.flushRunning {
		return en.flushDone
	}
	en.flushRunning = true
	en.ckptEpoch++
	en.flushDone = sim.NewFuture(en.eng)
	done := en.flushDone
	if en.cfg.LockDuringCheckpoint {
		en.gateClosed = true
		en.gateOpen = sim.NewFuture(en.eng)
	}
	en.eng.Go("flush", func(p *sim.Proc) {
		start := p.Now()
		// Seal: the active memtable becomes immutable (still readable), new
		// writes go to a fresh memtable and the rotated WAL half. When Seal
		// returns every sealed record is durable, so the flushed run holds
		// only committed versions — recovery equivalence depends on this.
		en.imm = en.mem
		en.mem = make(map[int64]*memEntry)
		half, used, maxSeq := en.w.Seal(p)

		sealedLogs := 0
		for _, rec := range en.walLive {
			if rec.seq <= maxSeq && rec.seq > en.durableFloor {
				sealedLogs++
			}
		}
		en.cfg.Tracer.Emit(start, trace.KindCheckpointBegin, int64(len(en.imm)),
			fmt.Sprintf("entries=%d used=%dKB", sealedLogs, used>>10))
		if sealedLogs > 0 {
			en.metrics.NoteLiveRatio(float64(len(en.imm)) / float64(sealedLogs))
		}

		if len(en.imm) > 0 {
			r := en.flushRun(p)
			en.levels[0] = append(en.levels[0], r)
			en.st.Flushes++
			en.st.FlushedEntries += uint64(len(r.keys))
			en.st.FlushedBytes += uint64(r.payload)
			en.st.RunsCreated++
			en.publishManifest(p, maxSeq)
			// the sealed WAL half is fully superseded: deallocate it
			if used > 0 {
				p.Wait(en.dev.Deallocate(en.w.halfStart(half), roundUp(used, en.unit)))
			}
		}
		en.imm = nil
		en.metrics.NoteCheckpoint(p.Now() - start)
		en.cfg.Tracer.Emit(p.Now(), trace.KindCheckpointEnd, int64(p.Now()-start), "")
		en.flushRunning = false
		en.ckptEpoch++
		if en.cfg.LockDuringCheckpoint {
			en.gateClosed = false
			en.gateOpen.Complete()
		}
		done.Complete()
		en.maybeCompact()
	})
	return done
}

// flushRun materializes the sealed memtable as a level-0 run using the
// configured checkpoint strategy for the data transfer.
func (en *Engine) flushRun(p *sim.Proc) *run {
	entries := make([]runEntry, 0, len(en.imm))
	for k, e := range en.imm {
		entries = append(entries, runEntry{key: k, version: e.version, size: e.size})
	}
	sortEntries(entries)

	// Back-pressure: wait for a running compaction (or force one) when the
	// run area cannot take the new extent.
	var need int64
	for _, e := range entries {
		need += roundUp(int64(e.size), sector)
	}
	for !en.allocatable(need) {
		if en.compacting {
			p.Wait(en.compactDone)
			continue
		}
		if !en.startCompaction(true) {
			break // let newRun panic with the allocator's state
		}
		p.Wait(en.compactDone)
	}
	r := en.newRun(0, entries, false)

	switch {
	case en.cfg.Strategy == core.StrategyBaseline:
		// host-side flush: the values sit in the memtable, stream them out
		en.writeRunSequential(p, r, ssd.AreaCheckpoint)
	case en.cfg.Strategy.UsesRemap():
		en.flushByRemap(p, r, entries)
	case en.cfg.Strategy == core.StrategyISCA:
		en.flushByCoW(p, r, entries)
	default: // ISC-B
		en.flushByMultiCoW(p, r, entries)
	}
	en.cfg.Injector.Hit(inject.SiteMemFlush)
	return r
}

// flushByCoW installs the run with one device CoW command per record,
// copying from each record's WAL location (ISC-A).
func (en *Engine) flushByCoW(p *sim.Proc, r *run, entries []runEntry) {
	w := en.cfg.CkptCoWWindow
	if w < 1 {
		w = 128
	}
	for i := 0; i < len(entries); i += w {
		hi := min(i+w, len(entries))
		futs := make([]*sim.Future, 0, hi-i)
		for j := i; j < hi; j++ {
			rec := en.imm[entries[j].key].rec
			p.Sleep(en.cfg.HostIOOverhead)
			futs = append(futs, en.dev.CoW(rec.off, r.offs[j], int64(rec.payload)))
		}
		p.WaitAll(futs)
	}
	p.Wait(en.dev.Flush(ssd.AreaData))
}

// flushByMultiCoW batches the CoW pairs into multi-CoW commands (ISC-B).
func (en *Engine) flushByMultiCoW(p *sim.Proc, r *run, entries []runEntry) {
	b := en.cfg.MultiCoWBatch
	if b < 1 {
		b = 128
	}
	var prev *sim.Future
	for i := 0; i < len(entries); i += b {
		hi := min(i+b, len(entries))
		pairs := make([]ssd.CoWPair, 0, hi-i)
		for j := i; j < hi; j++ {
			rec := en.imm[entries[j].key].rec
			pairs = append(pairs, ssd.CoWPair{Src: rec.off, Dst: r.offs[j], Len: int64(rec.payload)})
		}
		p.Sleep(en.cfg.HostIOOverhead)
		cur := en.dev.MultiCoW(pairs)
		if prev != nil {
			p.Wait(prev)
		}
		prev = cur
	}
	if prev != nil {
		p.Wait(prev)
	}
	p.Wait(en.dev.Flush(ssd.AreaData))
}

// flushByRemap installs the run by remapping each record's WAL extent onto
// its run slot with checkpoint-request commands (ISC-C / Check-In). Under
// the sector-aligned WAL format the source extents remap cleanly; the dense
// conventional format degrades to read-merge-writes in the FTL, exactly the
// ISC-C/Check-In distinction of the journal engine.
func (en *Engine) flushByRemap(p *sim.Proc, r *run, entries []runEntry) {
	b := en.cfg.CkptCmdBatch
	if b < 1 {
		b = 512
	}
	en.dev.BeginCheckpointCut()
	var prev *sim.Future
	for i := 0; i < len(entries); i += b {
		hi := min(i+b, len(entries))
		reqs := make([]ssd.RemapEntry, 0, hi-i)
		for j := i; j < hi; j++ {
			rec := en.imm[entries[j].key].rec
			slot := roundUp(int64(entries[j].size), sector)
			reqs = append(reqs, ssd.RemapEntry{Src: rec.off, Dst: r.offs[j], Len: slot})
		}
		p.Sleep(en.cfg.HostIOOverhead)
		res, fut := en.dev.CheckpointRequest(reqs)
		fut.OnComplete(func() {
			en.remapTotals.Remapped += res.Remapped
			en.remapTotals.RMWs += res.RMWs
			en.remapTotals.Skipped += res.Skipped
		})
		if prev != nil {
			p.Wait(prev)
		}
		prev = fut
	}
	if prev != nil {
		p.Wait(prev)
	}
	en.dev.EndCheckpointCut()
	p.Wait(en.dev.Flush(ssd.AreaCheckpoint))
}

// publishManifest writes and flushes the alternate manifest slot, then
// atomically advances the durable run set and WAL floor. floor < 0 keeps
// the current floor (compaction publishes do not move it).
func (en *Engine) publishManifest(p *sim.Proc, floor int64) {
	en.manifestSeq++
	slot := int64(en.manifestSeq % 2)
	runs := 0
	for _, l := range en.levels {
		runs += len(l)
	}
	n := roundUp(64+32*int64(runs), sector)
	if n > en.manifestSlot {
		n = en.manifestSlot
	}
	p.Sleep(en.cfg.HostIOOverhead)
	en.dev.Write(en.manifestStart+slot*en.manifestSlot, n, ssd.AreaData)
	p.Wait(en.dev.Flush(ssd.AreaData))
	// Durable from this instant: snapshot the run set and advance the floor.
	dr := make([]*run, 0, runs)
	for _, l := range en.levels {
		dr = append(dr, l...)
	}
	en.durableRuns = dr
	if floor >= 0 && floor > en.durableFloor {
		en.durableFloor = floor
	}
	keep := make([]*walRec, 0, len(en.walLive))
	for _, rec := range en.walLive {
		if rec.seq > en.durableFloor {
			keep = append(keep, rec)
		}
	}
	en.walLive = keep
	en.st.ManifestWrites++
	en.cfg.Injector.Hit(inject.SiteManifestPublish)
}

// ---------------------------------------------------------------------------
// workload runner

// Run executes the workload to completion under the shared driver
// (core.Drive), so both backends measure identically.
func (en *Engine) Run(spec core.RunSpec) (*core.Metrics, error) {
	en.metrics = core.NewMetrics()
	if err := core.Drive(en, core.Stack{Sim: en.eng, Dev: en.dev, Journal: en.w.Stats,
		Keys: en.cfg.Keys, Sizer: en.cfg.Sizer, RNG: en.rng,
		CheckpointInterval: en.cfg.CheckpointInterval,
		AdaptiveLiveBudget: en.cfg.AdaptiveLiveBudget}, en.metrics, spec); err != nil {
		return nil, err
	}
	return en.metrics, nil
}

// ---------------------------------------------------------------------------
// crash recovery

// recoverReport reconstructs what a restarted instance recovers: the last
// durably-published manifest's runs, overlaid with committed WAL records
// above the manifest floor. Pure — safe to call from inside an engine event.
func (en *Engine) recoverReport() *core.RecoveryReport {
	rep := &core.RecoveryReport{Recovered: make([]int64, en.cfg.Keys)}
	for _, r := range en.durableRuns {
		for i, k := range r.keys {
			if r.vers[i] > rep.Recovered[k] {
				rep.Recovered[k] = r.vers[i]
			}
		}
	}
	for _, v := range rep.Recovered {
		if v > 0 {
			rep.FromCheckpoint++
		}
	}
	for _, rec := range en.walLive {
		if !rec.committed || rec.seq <= en.durableFloor {
			continue
		}
		rep.ReplayedLogs++
		rep.JournalBytesRead += int64(rec.stored)
		if rec.version > rep.Recovered[rec.key] {
			rep.Recovered[rec.key] = rec.version
		}
	}
	return rep
}

// RecoveredVersions returns the per-key versions a crash at the current
// instant would recover to.
func (en *Engine) RecoveredVersions() []int64 {
	return en.recoverReport().Recovered
}

// SimulateRecovery models a crash at the current instant: the manifest is
// read, runs are opened from their footers (metadata-only), and the WAL
// tail above the floor is scanned sequentially.
func (en *Engine) SimulateRecovery() *core.RecoveryReport {
	rep := en.recoverReport()

	start := en.eng.Now()
	done := false
	var finished sim.VTime
	en.eng.Go("recovery", func(p *sim.Proc) {
		// manifest slot read, then the WAL tail scan
		p.Wait(en.dev.Read(en.manifestStart+int64(en.manifestSeq%2)*en.manifestSlot, sector))
		const chunk = 256 << 10
		half := en.w.halfStart(en.w.active)
		for off := int64(0); off < rep.JournalBytesRead; off += chunk {
			n := int64(chunk)
			if off+n > rep.JournalBytesRead {
				n = rep.JournalBytesRead - off
			}
			if off+n > en.w.halfBytes {
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

// DurableVersions returns a copy of the per-key durable versions.
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
