// Package ssd models the Check-In SSD controller: an NVMe-like host
// interface with bounded queue depth and PCIe transfer costs, an embedded-
// CPU cost model, a DRAM data cache, and the in-storage checkpointing
// engine (ISCE) consisting of the log manager (journal write path), the
// checkpoint manager (CoW and remap command service, Algorithm 1) and the
// deallocator (journal trim and idle-time garbage collection).
//
// The storage engine talks to the device exclusively through this package's
// command methods — the simulated equivalent of the block I/O interface
// plus the paper's vendor-specific commands.
package ssd

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
)

// Area tells the device which logical region a host write targets, standing
// in for the stream hints a real engine passes via write-hint/flexible data
// placement. It selects the FTL stream and accounting tag.
type Area uint8

// Host write areas. AreaCheckpoint marks host-issued writes that rewrite
// journaled data during an engine-side (baseline) checkpoint, so the FTL
// accounts them as duplicate writes.
const (
	AreaJournal Area = iota
	AreaData
	AreaCheckpoint
)

func (a Area) stream() ftl.Stream {
	if a == AreaJournal {
		return ftl.StreamJournal
	}
	return ftl.StreamData
}

func (a Area) tag() ftl.Tag {
	switch a {
	case AreaJournal:
		return ftl.TagHostJournal
	case AreaCheckpoint:
		return ftl.TagCheckpoint
	default:
		return ftl.TagHostData
	}
}

// Config parameterizes the controller.
type Config struct {
	// QueueDepth bounds in-flight commands (NVMe submission queue depth).
	QueueDepth int

	// PCIeMBps is the host link bandwidth in MB/s.
	PCIeMBps int

	// CmdBytes is the per-command overhead moved over the link
	// (submission entry + completion entry + doorbells).
	CmdBytes int

	// CPUPerCommand is embedded-CPU time to parse and dispatch a command.
	CPUPerCommand sim.VTime

	// CPUPerCoWEntry is embedded-CPU time per copy pair in a CoW command.
	CPUPerCoWEntry sim.VTime

	// CPUPerRemapEntry is embedded-CPU time per mapping-table update in a
	// checkpoint-request command (pure pointer work, cheaper than a copy).
	CPUPerRemapEntry sim.VTime

	// CacheBytes is DRAM available for the data cache (unit granularity,
	// LRU). Zero disables the cache.
	CacheBytes int64

	// DeallocatorPeriod is how often the deallocator checks for idle
	// windows to run background GC in. Zero disables the deallocator
	// process (GC then happens only in the foreground path).
	DeallocatorPeriod sim.VTime

	// BackgroundGCBatch is the number of victims collected per idle check.
	BackgroundGCBatch int

	// Injector, when set, receives crash-injection hits at the device-level
	// ISCE sites (checkpoint copy/remap service, deallocate). Nil in
	// production.
	Injector *inject.Injector

	// CommandTimeout, when nonzero, is the service-time budget per command:
	// a command whose back-end work exceeds it (error-recovery ladders under
	// the NAND fault model) completes only after an extra TimeoutBackoff —
	// the host-visible cost of the timeout/abort/retry exchange. Zero
	// disables detection entirely.
	CommandTimeout sim.VTime
	TimeoutBackoff sim.VTime
}

// DefaultConfig mirrors a mid-range NVMe datacenter SSD.
func DefaultConfig() Config {
	return Config{
		QueueDepth:        64,
		PCIeMBps:          3200,
		CmdBytes:          80,
		CPUPerCommand:     2 * sim.Microsecond,
		CPUPerCoWEntry:    1 * sim.Microsecond,
		CPUPerRemapEntry:  500 * sim.Nanosecond,
		CacheBytes:        64 << 20,
		DeallocatorPeriod: 10 * sim.Millisecond,
		BackgroundGCBatch: 2,
	}
}

// Validate reports a descriptive error for unusable configurations.
func (c Config) Validate() error {
	if c.QueueDepth < 1 {
		return fmt.Errorf("ssd: QueueDepth %d must be >= 1", c.QueueDepth)
	}
	if c.PCIeMBps <= 0 {
		return fmt.Errorf("ssd: PCIeMBps %d must be positive", c.PCIeMBps)
	}
	if c.CacheBytes < 0 {
		return fmt.Errorf("ssd: CacheBytes %d must be >= 0", c.CacheBytes)
	}
	return nil
}

// Stats aggregates controller-level counters.
type Stats struct {
	Commands       uint64
	HostReadBytes  uint64
	HostWriteBytes uint64
	CacheHits      uint64
	CacheMisses    uint64
	CoWPairs       uint64
	RemapEntries   uint64
	Deallocates    uint64
	BackgroundGCs  uint64
	// Timeouts counts commands that blew the CommandTimeout budget and paid
	// the backoff penalty (always zero unless a timeout is configured).
	Timeouts uint64
	// QueueWait records time commands spent waiting for a queue slot.
	QueueWait stats1
}

// stats1 is a minimal mean accumulator (full histograms live at the engine
// level where per-query latency is measured).
type stats1 struct {
	N   uint64
	Sum sim.VTime
}

// Mean returns the average waiting time.
func (s stats1) Mean() sim.VTime {
	if s.N == 0 {
		return 0
	}
	return s.Sum / sim.VTime(s.N)
}

func (s *stats1) add(v sim.VTime) { s.N++; s.Sum += v }

// CoWPair is one source→destination range of a CoW command.
type CoWPair struct {
	Src, Dst, Len int64
}

// RemapEntry is one JMT record shipped in a checkpoint-request command:
// remap the journal range onto the target range. Old indicates the log was
// superseded by a newer version (Algorithm 1 skips it).
type RemapEntry struct {
	Src, Dst, Len int64
	Old           bool
}

// Device is the simulated Check-In SSD.
type Device struct {
	eng *sim.Engine
	f   *ftl.FTL
	cfg Config

	queue *sim.Semaphore
	bus   sim.FIFOResource
	cpu   sim.FIFOResource

	cache *unitCache

	// deallocator scheduling state: armed tracks whether a tick event is
	// queued; paused makes the queued tick fire as a disarming no-op (events
	// cannot be removed from the kernel queue, so pausing lets the tick
	// cancel itself without doing GC work or re-arming).
	deallocArmed  bool
	deallocPaused bool

	// cmdPool holds completed commands for reuse (see command).
	cmdPool []*command

	stats Stats
}

// New wraps an FTL in a controller.
func New(eng *sim.Engine, f *ftl.FTL, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		eng:   eng,
		f:     f,
		cfg:   cfg,
		queue: sim.NewSemaphore(eng, cfg.QueueDepth),
	}
	if cfg.CacheBytes > 0 {
		unit := int64(f.UnitSize())
		d.cache = newUnitCache(cfg.CacheBytes/unit, (f.LogicalBytes()+unit-1)/unit)
	}
	if cfg.DeallocatorPeriod > 0 {
		d.startDeallocator()
	}
	return d, nil
}

// FTL exposes the translation layer for reporting.
func (d *Device) FTL() *ftl.FTL { return d.f }

// Stats returns a snapshot of controller counters.
func (d *Device) Stats() Stats { return d.stats }

// LogicalBytes returns the device's exported capacity.
func (d *Device) LogicalBytes() int64 { return d.f.LogicalBytes() }

// SimulateSPOR models a sudden power-off followed by the device's own
// OOB-scan recovery (Section III-G); see ftl.FTL.SimulateSPOR.
func (d *Device) SimulateSPOR() *ftl.SPORReport { return d.f.SimulateSPOR() }

// ReadOnly reports whether the device degraded to read-only mode: block
// retirements exhausted the spare pool, so new host writes are refused
// while reads (and internal housekeeping) keep working.
func (d *Device) ReadOnly() bool { return d.f.ReadOnly() }

// Health surfaces the FTL's reliability summary (retired blocks, spares
// left, read-only latch) over the device interface.
func (d *Device) Health() ftl.Health { return d.f.Health() }

// linkTime returns PCIe transfer time for n bytes.
func (d *Device) linkTime(n int) sim.VTime {
	if n <= 0 {
		return 0
	}
	return sim.VTime(uint64(n) * 1000 / uint64(d.cfg.PCIeMBps))
}

// cmdKind selects what a pooled command does once the device starts it.
// The three host I/O kinds are decoded inline; cmdOp runs the command's op
// closure (the rare control-plane commands: trim, CoW, checkpoint).
type cmdKind uint8

const (
	cmdOp cmdKind = iota
	cmdRead
	cmdWrite
	cmdFlush
)

// A command carries one submission through the front end and back end.
// Commands are pooled per device: the stage callbacks are method values
// bound once when the command is first made, so a host Read, Write or Flush
// allocates nothing but the future it returns. A command goes back to the
// pool when it completes its future, its last step; the kernel holds no
// reference to it after that.
type command struct {
	d    *Device
	kind cmdKind
	off  int64
	n    int64
	area Area
	op   func() *sim.Future

	dataBytes int
	cpuTime   sim.VTime
	arrival   sim.VTime
	start     sim.VTime
	out       *sim.Future

	acquired, started, finished func()
}

// newCommand takes a command from the pool, or makes one.
func (d *Device) newCommand() *command {
	if n := len(d.cmdPool); n > 0 {
		c := d.cmdPool[n-1]
		d.cmdPool = d.cmdPool[:n-1]
		return c
	}
	c := &command{d: d}
	c.acquired = c.onAcquired
	c.started = c.onStarted
	c.finished = c.onFinished
	return c
}

// submit acquires a queue slot, pays the front-end costs (link transfer of
// the command plus dataBytes, and controller CPU of cpuTime), then starts
// c's back-end work at the moment the device begins executing the command.
// The returned future completes when the back-end is done and the queue
// slot has been released.
func (d *Device) submit(c *command, dataBytes int, cpuTime sim.VTime) *sim.Future {
	c.dataBytes = dataBytes
	c.cpuTime = cpuTime
	c.out = sim.NewFuture(d.eng)
	c.arrival = d.eng.Now()
	d.stats.Commands++
	d.queue.AcquireAsync(c.acquired) // never runs c.acquired before returning
	return c.out
}

// submitOp submits a command whose back-end work is op.
func (d *Device) submitOp(dataBytes int, cpuTime sim.VTime, op func() *sim.Future) *sim.Future {
	c := d.newCommand()
	c.kind = cmdOp
	c.op = op
	return d.submit(c, dataBytes, cpuTime)
}

// onAcquired runs once the command holds a queue slot: it reserves the
// link and the controller CPU and schedules the start of execution.
func (c *command) onAcquired() {
	d := c.d
	d.stats.QueueWait.add(d.eng.Now() - c.arrival)
	_, busEnd := d.bus.Reserve(d.eng.Now(), d.linkTime(d.cfg.CmdBytes+c.dataBytes))
	_, cpuEnd := d.cpu.Reserve(d.eng.Now(), d.cfg.CPUPerCommand+c.cpuTime)
	ready := busEnd
	if cpuEnd > ready {
		ready = cpuEnd
	}
	d.eng.At(ready, c.started)
}

// onStarted runs the back-end work and waits for it.
func (c *command) onStarted() {
	c.start = c.d.eng.Now()
	c.exec().OnComplete(c.finished)
}

// exec issues the command's back-end work and returns its future.
func (c *command) exec() *sim.Future {
	d := c.d
	switch c.kind {
	case cmdRead:
		if d.cacheLookup(c.off, c.n) == 0 {
			// full cache hit: DRAM access only; completion after the
			// data crosses the link (accounted in submit's dataBytes)
			return sim.CompletedFuture(d.eng)
		}
		return d.f.Read(c.off, c.n)
	case cmdWrite:
		d.cacheInsert(c.off, c.n)
		return d.f.Write(c.off, c.n, c.area.tag(), c.area.stream())
	case cmdFlush:
		return d.f.Sync(c.area.stream(), c.area.tag())
	default:
		op := c.op
		c.op = nil
		return op()
	}
}

// onFinished runs when the back-end work is done.
func (c *command) onFinished() {
	d := c.d
	if d.cfg.CommandTimeout > 0 && d.eng.Now()-c.start > d.cfg.CommandTimeout {
		// the command blew its service budget: the host timed it out and
		// re-drove it, costing an extra backoff before completion is
		// observed
		d.stats.Timeouts++
		d.eng.Schedule(d.cfg.TimeoutBackoff, c.complete) // rare: bound per use
		return
	}
	c.complete()
}

// complete releases the queue slot, completes the future and returns the
// command to the pool.
func (c *command) complete() {
	d := c.d
	out := c.out
	c.out = nil
	d.cmdPool = append(d.cmdPool, c)
	d.queue.Release()
	out.Complete()
}

// Read services a host read of n bytes at off. Units resident in the DRAM
// cache are served without flash reads; the rest go to the FTL.
func (d *Device) Read(off, n int64) *sim.Future {
	d.stats.HostReadBytes += uint64(n)
	c := d.newCommand()
	c.kind, c.off, c.n = cmdRead, off, n
	return d.submit(c, int(n), 0)
}

// Write services a host write of n bytes at off into the given area. The
// future completes when the data is durable on flash (journal semantics
// require an explicit Flush for buffered tails; see Flush).
func (d *Device) Write(off, n int64, area Area) *sim.Future {
	d.stats.HostWriteBytes += uint64(n)
	c := d.newCommand()
	c.kind, c.off, c.n, c.area = cmdWrite, off, n, area
	return d.submit(c, int(n), 0)
}

// Flush forces buffered partial pages of the area's stream to flash — the
// device-side half of a journal commit (FLUSH/FUA semantics).
func (d *Device) Flush(area Area) *sim.Future {
	c := d.newCommand()
	c.kind, c.area = cmdFlush, area
	return d.submit(c, 0, 0)
}

// Deallocate trims a logical range (journal deletion after checkpointing).
func (d *Device) Deallocate(off, n int64) *sim.Future {
	d.stats.Deallocates++
	return d.submitOp(0, 0, func() *sim.Future {
		d.cacheInvalidate(off, n)
		d.f.Trim(off, n)
		d.cfg.Injector.Hit(inject.SiteDeallocate)
		return sim.CompletedFuture(d.eng)
	})
}

// CoW executes a single-pair copy-on-write command (ISC-A): the device
// copies the range internally; no data crosses the host link.
func (d *Device) CoW(src, dst, n int64) *sim.Future {
	d.stats.CoWPairs++
	return d.submitOp(0, d.cfg.CPUPerCoWEntry, func() *sim.Future {
		cached := d.cacheLookup(src, n) == 0
		d.cacheInvalidate(dst, n)
		cf := d.f.CopyCached(src, dst, n, ftl.TagCheckpoint, cached)
		sf := d.f.Sync(ftl.StreamData, ftl.TagCheckpoint)
		d.cfg.Injector.Hit(inject.SiteCheckpointCopy)
		return sim.AfterAll(d.eng, []*sim.Future{cf, sf})
	})
}

// MultiCoW executes a batched copy command (ISC-B): one submission carries
// many pairs, drastically reducing command-queue pressure; the device
// orders the work as consecutive reads then consecutive writes.
func (d *Device) MultiCoW(pairs []CoWPair) *sim.Future {
	d.stats.CoWPairs += uint64(len(pairs))
	meta := len(pairs) * 24
	cpu := sim.VTime(len(pairs)) * d.cfg.CPUPerCoWEntry
	return d.submitOp(meta, cpu, func() *sim.Future {
		futs := make([]*sim.Future, 0, len(pairs)+1)
		for _, p := range pairs {
			cached := d.cacheLookup(p.Src, p.Len) == 0
			d.cacheInvalidate(p.Dst, p.Len)
			futs = append(futs, d.f.CopyCached(p.Src, p.Dst, p.Len, ftl.TagCheckpoint, cached))
		}
		// one durability barrier per command: copies batch into full pages
		futs = append(futs, d.f.Sync(ftl.StreamData, ftl.TagCheckpoint))
		d.cfg.Injector.Hit(inject.SiteCheckpointCopy)
		return sim.AfterAll(d.eng, futs)
	})
}

// RemapStats aggregates what a checkpoint-request command did.
type RemapStats struct {
	Remapped int
	RMWs     int
	Skipped  int
}

// CheckpointRequest executes the paper's checkpoint command: the JMT
// metadata rides in the command payload; the checkpoint manager walks it
// (Algorithm 1), skipping OLD entries and remapping the rest. Aligned
// entries are pure mapping updates; unaligned ones degrade to in-device
// read-merge-writes. The returned future completes when the checkpoint is
// durable.
func (d *Device) CheckpointRequest(entries []RemapEntry) (*RemapStats, *sim.Future) {
	res := &RemapStats{}
	live := 0
	for _, e := range entries {
		if !e.Old {
			live++
		}
	}
	d.stats.RemapEntries += uint64(live)
	meta := len(entries) * 25
	cpu := sim.VTime(live) * d.cfg.CPUPerRemapEntry
	fut := d.submitOp(meta, cpu, func() *sim.Future {
		var futs []*sim.Future
		for _, e := range entries {
			if e.Old {
				continue
			}
			cached := d.cacheLookup(e.Src, e.Len) == 0
			d.cacheInvalidate(e.Dst, e.Len)
			r, f := d.f.RemapCached(e.Src, e.Dst, e.Len, cached)
			res.Remapped += r.Remapped
			res.RMWs += r.RMWs
			res.Skipped += r.Skipped
			if !f.Done() {
				futs = append(futs, f)
			}
		}
		d.cfg.Injector.Hit(inject.SiteCheckpointRemap)
		return sim.AfterAll(d.eng, futs)
	})
	return res, fut
}

// BeginCheckpointCut / EndCheckpointCut bracket one checkpoint's remap burst
// for the FTL's translation-metadata layer: between them, mapping-writeback
// work deferred by the dftl remap batch accumulates and settles once at the
// cut end (see ftl.BeginCheckpointCut). Zero-cost control-plane markers — no
// command is queued and nothing crosses the host link; no-ops in dram mode.
func (d *Device) BeginCheckpointCut() { d.f.BeginCheckpointCut() }

// EndCheckpointCut settles the remap-batch window opened by
// BeginCheckpointCut. Callers issue it after the last checkpoint-request
// command completed and before the checkpoint's durability barrier.
func (d *Device) EndCheckpointCut() { d.f.EndCheckpointCut() }

// ---------------------------------------------------------------------------
// deallocator: idle-window background GC

func (d *Device) startDeallocator() {
	d.armDeallocator()
}

// armDeallocator schedules the next deallocator tick.
func (d *Device) armDeallocator() {
	d.deallocArmed = true
	d.eng.Schedule(d.cfg.DeallocatorPeriod, d.deallocTick)
}

// deallocTick is one deallocator wake-up: run background reclamation work if
// warranted, then re-arm. While paused the tick disarms itself instead — it
// must not advance any device state, so that a paused drain reaches a state
// the snapshot layer can capture and reproduce exactly.
func (d *Device) deallocTick() {
	if d.deallocPaused {
		d.deallocArmed = false
		return
	}
	now := d.eng.Now()
	// the tick is a safe depth for deferred fault handling (bad-block
	// retirements, read-reclaim scrubs) queued since the last host op
	d.f.DrainFaults()
	switch {
	case d.f.LowSpace():
		// space pressure: reclaim a small batch even while busy so
		// the foreground path never has to stall on a giant burst
		n := d.f.BackgroundGCForce(d.cfg.BackgroundGCBatch)
		d.stats.BackgroundGCs += uint64(n)
	case d.f.Array().AllDiesIdleAt(now) && d.f.HasCheapVictim():
		n := d.f.BackgroundGC(d.cfg.BackgroundGCBatch)
		d.stats.BackgroundGCs += uint64(n)
	case d.f.Array().AllDiesIdleAt(now):
		d.f.MaybeWearLevel()
	}
	d.armDeallocator()
}

// PauseDeallocator stops the periodic deallocator: the already-queued tick
// fires as a no-op and does not re-arm. With the deallocator paused the
// engine's event queue can drain completely (the tick is otherwise the one
// perpetual event), which is how callers reach a quiescent state.
func (d *Device) PauseDeallocator() { d.deallocPaused = true }

// ResumeDeallocator restarts the periodic deallocator, arming a tick one
// period from now unless one is still queued.
func (d *Device) ResumeDeallocator() {
	d.deallocPaused = false
	if !d.deallocArmed && d.cfg.DeallocatorPeriod > 0 {
		d.armDeallocator()
	}
}

// StopConditionless deallocator note: the periodic event keeps the engine's
// queue non-empty forever; simulations therefore run with RunUntil (or pause
// the deallocator first and Run to a full drain).

// ---------------------------------------------------------------------------
// DRAM data cache (unit-granular LRU)

// unitCache is an intrusive LRU over parallel slot arrays: next/prev hold
// slot indices (-1 = none), head is the most recent entry and tail the
// eviction candidate. Slots are recycled through a free list threaded over
// next, so once the cache has been full the steady state allocates nothing —
// unlike container/list, which pays one heap Element per insert (and boxed
// the unit number on top). Churn-heavy workloads insert millions of times.
type unitCache struct {
	capacity int64
	units    []int64 // slot -> cached unit number
	next     []int32 // slot -> next-older slot, or free-list link
	prev     []int32 // slot -> next-newer slot
	head     int32   // most recently used, -1 when empty
	tail     int32   // least recently used, -1 when empty
	freeHead int32   // free-list head, -1 when none
	// index maps a unit number to 1 + its slot, 0 when not cached. Units
	// are dense logical addresses, so the index is a slice of pages of
	// 1<<indexShift units each, allocated on first insert: no hashing on a
	// host command, and memory only for the regions the host touches.
	index [][]int32
	size  int64 // cached units
}

// indexShift sets the index page size: 4096 units (16 KiB) per page.
const indexShift = 12

func newUnitCache(capUnits, totalUnits int64) *unitCache {
	if capUnits < 1 {
		return nil
	}
	pages := (totalUnits + 1<<indexShift - 1) >> indexShift
	return &unitCache{capacity: capUnits, head: -1, tail: -1, freeHead: -1, index: make([][]int32, pages)}
}

// reset empties the cache, keeping slot-array capacity and index pages for
// reuse (Restore repopulates immediately after).
func (c *unitCache) reset() {
	for s := c.head; s >= 0; s = c.next[s] {
		c.setIndex(c.units[s], 0)
	}
	c.units = c.units[:0]
	c.next = c.next[:0]
	c.prev = c.prev[:0]
	c.head, c.tail, c.freeHead = -1, -1, -1
	c.size = 0
}

// slot returns unit u's slot, if cached.
func (c *unitCache) slot(u int64) (int32, bool) {
	pg := c.index[u>>indexShift]
	if pg == nil {
		return -1, false
	}
	s := pg[u&(1<<indexShift-1)] - 1
	return s, s >= 0
}

// setIndex records v (1 + slot, or 0) for unit u.
func (c *unitCache) setIndex(u int64, v int32) {
	pg := c.index[u>>indexShift]
	if pg == nil {
		pg = make([]int32, 1<<indexShift)
		c.index[u>>indexShift] = pg
	}
	pg[u&(1<<indexShift-1)] = v
}

// insert caches unit u at the front of the LRU order.
func (c *unitCache) insert(u int64) {
	s := c.alloc(u)
	c.pushFront(s)
	c.setIndex(u, s+1)
	c.size++
}

// remove drops the unit cached in slot s.
func (c *unitCache) remove(s int32) {
	c.unlink(s)
	c.release(s)
	c.setIndex(c.units[s], 0)
	c.size--
}

// alloc returns a slot for unit u, recycling from the free list when
// possible. Slot-array growth stops once the cache reaches capacity.
func (c *unitCache) alloc(u int64) int32 {
	if s := c.freeHead; s >= 0 {
		c.freeHead = c.next[s]
		c.units[s] = u
		return s
	}
	c.units = append(c.units, u)
	c.next = append(c.next, -1)
	c.prev = append(c.prev, -1)
	return int32(len(c.units) - 1)
}

func (c *unitCache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

func (c *unitCache) unlink(s int32) {
	if p := c.prev[s]; p >= 0 {
		c.next[p] = c.next[s]
	} else {
		c.head = c.next[s]
	}
	if n := c.next[s]; n >= 0 {
		c.prev[n] = c.prev[s]
	} else {
		c.tail = c.prev[s]
	}
}

func (c *unitCache) moveToFront(s int32) {
	if c.head == s {
		return
	}
	c.unlink(s)
	c.pushFront(s)
}

func (c *unitCache) release(s int32) {
	c.next[s] = c.freeHead
	c.freeHead = s
}

func (d *Device) unitsOf(off, n int64) (first, last int64) {
	u := int64(d.f.UnitSize())
	if n <= 0 {
		return 0, -1
	}
	return off / u, (off + n - 1) / u
}

// cacheLookup touches all units of the range and returns how many missed.
func (d *Device) cacheLookup(off, n int64) int {
	if d.cache == nil {
		return int(n/int64(d.f.UnitSize())) + 1
	}
	first, last := d.unitsOf(off, n)
	miss := 0
	for u := first; u <= last; u++ {
		if s, ok := d.cache.slot(u); ok {
			d.cache.moveToFront(s)
			d.stats.CacheHits++
		} else {
			miss++
			d.stats.CacheMisses++
		}
	}
	return miss
}

func (d *Device) cacheInsert(off, n int64) {
	if d.cache == nil {
		return
	}
	first, last := d.unitsOf(off, n)
	for u := first; u <= last; u++ {
		if s, ok := d.cache.slot(u); ok {
			d.cache.moveToFront(s)
			continue
		}
		d.cache.insert(u)
		if d.cache.size > d.cache.capacity {
			d.cache.remove(d.cache.tail)
		}
	}
}

func (d *Device) cacheInvalidate(off, n int64) {
	if d.cache == nil {
		return
	}
	first, last := d.unitsOf(off, n)
	for u := first; u <= last; u++ {
		if s, ok := d.cache.slot(u); ok {
			d.cache.remove(s)
		}
	}
}
