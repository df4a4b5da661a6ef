// Package checkin is a simulation-backed reproduction of "Check-In:
// In-Storage Checkpointing for Key-Value Store System Leveraging
// Flash-Based SSDs" (ISCA 2020).
//
// It assembles a full simulated stack — NAND flash array, flash translation
// layer with sub-page mapping and copy-on-write remapping, an NVMe-like SSD
// controller hosting the in-storage checkpointing engine (ISCE), and the
// Check-In storage engine with sector-aligned journaling — and runs YCSB
// workloads against it under five checkpointing configurations (Baseline,
// ISC-A, ISC-B, ISC-C, Check-In).
//
// Typical use:
//
//	cfg := checkin.DefaultConfig()
//	cfg.Strategy = checkin.StrategyCheckIn
//	db, err := checkin.Open(cfg)
//	if err != nil { ... }
//	db.Load()
//	m, err := db.Run(checkin.RunSpec{Threads: 32, TotalQueries: 100_000,
//		Mix: checkin.WorkloadA, Zipfian: true})
//	fmt.Print(m.Summary())
//
// All time inside the simulation is virtual; runs are deterministic for a
// given Config (including Seed).
package checkin

import (
	"fmt"
	"runtime"
	"time"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Strategy selects the checkpointing mechanism under test.
type Strategy = core.Strategy

// The five evaluated configurations (Section IV-A of the paper).
const (
	StrategyBaseline = core.StrategyBaseline
	StrategyISCA     = core.StrategyISCA
	StrategyISCB     = core.StrategyISCB
	StrategyISCC     = core.StrategyISCC
	StrategyCheckIn  = core.StrategyCheckIn
)

// Strategies lists every configuration in evaluation order.
var Strategies = core.Strategies

// ParseStrategy resolves a strategy from its display name (e.g. "ISC-C").
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Workload types re-exported for callers.
type (
	// Mix is an operation mix in percent (reads/updates/RMWs).
	Mix = workload.Mix
	// Sizer assigns stable record sizes to keys.
	Sizer = workload.Sizer
	// RunSpec describes one measured workload phase.
	RunSpec = core.RunSpec
	// Metrics is the result of a run.
	Metrics = core.Metrics
	// RecoveryReport describes a simulated crash-recovery pass.
	RecoveryReport = core.RecoveryReport
	// Trace is a recorded operation stream for strict replay comparisons
	// (set RunSpec.Trace).
	Trace = workload.Trace
)

// The paper's workload mixes, plus the rest of the standard YCSB suite.
var (
	WorkloadA  = workload.WorkloadA  // 50% read / 50% update (paper)
	WorkloadF  = workload.WorkloadF  // 50% read / 50% RMW (paper)
	WorkloadWO = workload.WorkloadWO // write-only (paper)
	WorkloadB  = workload.WorkloadB  // 95% read / 5% update
	WorkloadC  = workload.WorkloadC  // read-only
	WorkloadD  = workload.WorkloadD  // 95% read / 5% update (pair with latest dist)
	WorkloadE  = workload.WorkloadE  // 95% scans / 5% update
)

// Record-size helpers.
var (
	// PatternP1..P4 are the record-size mixes of Figure 13(b).
	PatternP1 = workload.PatternP1
	PatternP2 = workload.PatternP2
	PatternP3 = workload.PatternP3
	PatternP4 = workload.PatternP4
)

// FixedRecords returns a sizer giving every record the same size.
func FixedRecords(size int) Sizer { return workload.FixedSizer{Size: size} }

// MixedRecords returns a sizer drawing sizes from a weighted set.
func MixedRecords(label string, sizes, weights []int) Sizer {
	return workload.NewMixSizer(label, sizes, weights)
}

// RecordWorkload generates a reusable operation trace: replaying the same
// trace against different configurations (RunSpec.Trace) compares them on
// byte-identical inputs.
func RecordWorkload(keys int64, sizer Sizer, mix Mix, zipfian bool, n int, seed int64) (*Trace, error) {
	var dist workload.Distribution
	if zipfian {
		dist = workload.NewZipfian(keys, workload.DefaultTheta)
	} else {
		dist = workload.Uniform{Keys: keys}
	}
	gen, err := workload.NewGenerator(dist, sizer, mix, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	return workload.RecordTrace(gen, n), nil
}

// Config is the full machine configuration — the reproduction of Table I.
// Zero fields are replaced by defaults at Open; start from DefaultConfig
// and override what an experiment sweeps.
type Config struct {
	Strategy Strategy
	Seed     int64

	// Engine selects the host storage engine: "journal" (default — the
	// paper's journaling engine with the in-memory key table) or "lsm"
	// (write-ahead log + memtable + sorted runs with compaction). Both
	// run over the same simulated device and the same checkpoint
	// strategies; see HostEngine.
	Engine string

	// Compaction selects the LSM compaction policy: "leveled" (default)
	// or "tiered". Ignored by the journal engine.
	Compaction string

	// MemtableEntries caps the LSM memtable's distinct-key count before a
	// flush epoch triggers (0 → 4096). Ignored by the journal engine.
	MemtableEntries int

	// Flash geometry.
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int
	PageSizeBytes  int

	// Flash timing.
	ReadLatency    time.Duration
	ProgramLatency time.Duration
	EraseLatency   time.Duration
	ChannelMBps    int
	MaxPECycles    int

	// FTL.
	MappingUnit   int // 0 → the strategy's default (4096 conventional, 512 sub-page)
	OverProvision float64
	MapCacheMB    int
	// GCPolicy selects the garbage-collection victim policy:
	// "greedy" (default), "cost-benefit", or "fifo".
	GCPolicy string
	// FTLMap selects the mapping-table model: "dram" (default — full table
	// in controller DRAM with the probabilistic map-cache cost model) or
	// "dftl" (DFTL-style flash-resident table: a bounded cached mapping
	// table backed by translation pages on flash, with mapping misses and
	// writebacks charged through the real NAND timing path; see
	// internal/ftl/dftl.go).
	FTLMap string
	// CMTEntries bounds the dftl cached mapping table (entries). 0 derives
	// the bound from MapCacheMB (8 bytes per entry).
	CMTEntries int
	// MetaFlushEntries overrides the dirty-mapping-entry count that triggers
	// a metadata (dram mode) or translation-page (dftl mode) writeback.
	// 0 keeps the FTL default of one translation page's worth of entries.
	MetaFlushEntries int
	// CMTFill toggles dftl page-fill on CMT miss: "" or "on" (default)
	// populates every entry the fetched translation page covers; "off"
	// inserts only the demanded entry (the pre-optimization behavior).
	CMTFill string
	// CMTCleanWindow bounds the dftl clean-first (CFLRU-style) eviction
	// search in entries. 0 picks the default (32); 1 or negative restores
	// strict LRU eviction.
	CMTCleanWindow int
	// RemapBatch toggles the dftl checkpoint-cut remap writeback batch:
	// "" or "on" (default) defers translation writeback across the cut and
	// settles it densest-page-first at the cut end; "off" interleaves
	// threshold writebacks with the cut (the pre-optimization behavior).
	RemapBatch string

	// Controller.
	QueueDepth  int
	PCIeMBps    int
	DataCacheMB int

	// Engine (DBMS) settings.
	Keys                 int64
	Records              Sizer
	JournalHalfMB        int
	CheckpointInterval   time.Duration
	JournalSoftFrac      float64
	LockDuringCheckpoint bool

	// CompressRatio models Algorithm 2's compression of journal logs
	// larger than the mapping unit (1.0 = alignment only, no shrink).
	CompressRatio float64

	// AdaptiveLiveBudget, when positive, triggers a checkpoint whenever
	// the journal mapping table reaches this many live entries — a
	// bounded-work scheduling extension beyond the paper's fixed
	// interval (0 = fixed interval only).
	AdaptiveLiveBudget int

	// DeferGC overrides the strategy default for the deallocator's
	// deferred-GC behaviour (ablation knob; nil = strategy default).
	DeferGC *bool

	// HostCacheEntries bounds a host-memory LRU of record values (the
	// engine's memtable/block cache): reads of cached keys skip the
	// device. 0 keeps the paper's device-centric read model.
	HostCacheEntries int

	// TraceCapacity enables structured event tracing (checkpoints, journal
	// commits, GC victims, wear-level moves) with a bounded ring of this
	// many events. 0 disables tracing.
	TraceCapacity int

	// WearDeltaThreshold enables static wear leveling: a leveling move
	// triggers when the erase-count spread across blocks exceeds this
	// value. 0 disables leveling (the default).
	WearDeltaThreshold uint32

	// Injector, when set, threads a crash-injection instrument through
	// every layer of the stack (engine, controller, FTL). Used by the
	// crash-consistency verification harness (internal/check); nil in
	// production.
	Injector *inject.Injector

	// NAND reliability model (all rates zero — perfect flash — by default;
	// zero rates leave every code path byte-identical to a build without
	// the model). See nand.ReliabilityConfig and ErrorProfiles for named
	// presets.
	ReadRetryRate     float64 // P(page read needs ≥1 voltage-shift retry)
	RetryEscalation   float64 // geometric continuation per extra retry step
	UncorrectableRate float64 // P(read uncorrectable by the retry ladder)
	ProgramFailRate   float64 // P(page program fails)
	EraseFailRate     float64 // P(block erase fails → retirement)
	WearErrorFactor   float64 // rate growth per erase cycle (wear-out)

	// MaxReadRetries bounds the retry ladder (0 → 6).
	MaxReadRetries int
	// SpareBlocksPerDie reserves replacement blocks for grown bad blocks.
	// 0 → 2 when the error model is enabled, none otherwise.
	SpareBlocksPerDie int

	// CommandTimeout, when nonzero, charges TimeoutBackoff extra on any
	// device command whose back-end service exceeds it (the host-visible
	// cost of a timeout/abort/retry exchange under error recovery).
	CommandTimeout time.Duration
	TimeoutBackoff time.Duration // 0 → 1ms when CommandTimeout is set

	// Domains controls the parallel DES kernel: per-channel NAND event
	// domains replay flash timing on worker goroutines and merge
	// completions back in (at, seq) order, so output is byte-identical to
	// the sequential kernel — this is purely a wall-clock optimization.
	// "on" enables, "off" disables, "" or "auto" enables when GOMAXPROCS
	// exceeds 1. Deliberately excluded from fingerprints: two runs that
	// differ only in Domains produce identical results.
	Domains string
}

// errorModelEnabled reports whether any NAND fault rate is nonzero.
func (c Config) errorModelEnabled() bool {
	return c.ReadRetryRate > 0 || c.UncorrectableRate > 0 ||
		c.ProgramFailRate > 0 || c.EraseFailRate > 0
}

// DefaultConfig returns the configuration used by the paper-reproduction
// experiments, scaled to simulator-friendly sizes: a 512 MB-raw flash
// device (4 channels × 2 dies × 2 planes × 128 blocks × 64 pages × 4 KB),
// 50 k records of small mixed sizes, 32 MB journal halves and a 1 s
// checkpoint interval (the paper's 60 s scaled to the shorter simulated
// runs).
func DefaultConfig() Config {
	return Config{
		Strategy:       StrategyCheckIn,
		Seed:           1,
		Channels:       4,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		BlocksPerPlane: 128,
		PagesPerBlock:  64,
		PageSizeBytes:  4096,
		ReadLatency:    50 * time.Microsecond,
		ProgramLatency: 500 * time.Microsecond,
		EraseLatency:   3 * time.Millisecond,
		ChannelMBps:    400,
		MaxPECycles:    3000,
		OverProvision:  0.12,
		MapCacheMB:     32,
		QueueDepth:     64,
		PCIeMBps:       3200,
		DataCacheMB:    8,
		Keys:           50_000,
		Records: workload.NewMixSizer("default-small",
			[]int{128, 256, 384, 512, 1024, 2048}, []int{2, 2, 1, 3, 1, 1}),
		JournalHalfMB:      32,
		CheckpointInterval: time.Second,
		JournalSoftFrac:    0.7,
	}
}

// DB is an open simulated key-value store system.
type DB struct {
	cfg    Config
	eng    *sim.Engine
	device *ssd.Device
	host   HostEngine
	tracer *trace.Tracer

	// restPoint is the kernel state at the post-Load quiescent instant —
	// the anchor Snapshot captures from. Nil before Load.
	restPoint *sim.EngineState
}

// withDefaults returns cfg with every zero field replaced by its default —
// the resolved configuration a DB actually runs with. Open applies it before
// assembly; fingerprints apply it so that a zero field and its explicit
// default hash identically.
func withDefaults(cfg Config) Config {
	def := DefaultConfig()
	fill := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	fill(&cfg.Channels, def.Channels)
	fill(&cfg.DiesPerChannel, def.DiesPerChannel)
	fill(&cfg.PlanesPerDie, def.PlanesPerDie)
	fill(&cfg.BlocksPerPlane, def.BlocksPerPlane)
	fill(&cfg.PagesPerBlock, def.PagesPerBlock)
	fill(&cfg.PageSizeBytes, def.PageSizeBytes)
	fill(&cfg.ChannelMBps, def.ChannelMBps)
	fill(&cfg.MaxPECycles, def.MaxPECycles)
	fill(&cfg.MapCacheMB, def.MapCacheMB)
	fill(&cfg.QueueDepth, def.QueueDepth)
	fill(&cfg.PCIeMBps, def.PCIeMBps)
	fill(&cfg.JournalHalfMB, def.JournalHalfMB)
	if cfg.ReadLatency == 0 {
		cfg.ReadLatency = def.ReadLatency
	}
	if cfg.ProgramLatency == 0 {
		cfg.ProgramLatency = def.ProgramLatency
	}
	if cfg.EraseLatency == 0 {
		cfg.EraseLatency = def.EraseLatency
	}
	if cfg.OverProvision == 0 {
		cfg.OverProvision = def.OverProvision
	}
	if cfg.DataCacheMB == 0 {
		cfg.DataCacheMB = def.DataCacheMB
	}
	if cfg.Keys == 0 {
		cfg.Keys = def.Keys
	}
	if cfg.Records == nil {
		cfg.Records = def.Records
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = def.CheckpointInterval
	}
	if cfg.JournalSoftFrac == 0 {
		cfg.JournalSoftFrac = def.JournalSoftFrac
	}
	if cfg.CompressRatio == 0 {
		cfg.CompressRatio = 0.85
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.MappingUnit == 0 {
		cfg.MappingUnit = cfg.Strategy.DefaultMappingUnit()
	}
	if cfg.errorModelEnabled() {
		if cfg.SpareBlocksPerDie == 0 {
			cfg.SpareBlocksPerDie = 2
		}
		if cfg.MaxReadRetries == 0 {
			cfg.MaxReadRetries = 6
		}
	}
	if cfg.CommandTimeout > 0 && cfg.TimeoutBackoff == 0 {
		cfg.TimeoutBackoff = time.Millisecond
	}
	if cfg.FTLMap == "" {
		cfg.FTLMap = "dram"
	}
	if cfg.Engine == "" {
		cfg.Engine = "journal"
	}
	if cfg.Engine == "lsm" && cfg.Compaction == "" {
		cfg.Compaction = "leveled"
	}
	return cfg
}

// Open assembles the simulated stack described by cfg.
func Open(cfg Config) (*DB, error) {
	cfg = withDefaults(cfg)

	eng := sim.NewEngine()

	geo := nand.Geometry{
		Channels:           cfg.Channels,
		PackagesPerChannel: 1,
		DiesPerPackage:     cfg.DiesPerChannel,
		PlanesPerDie:       cfg.PlanesPerDie,
		BlocksPerPlane:     cfg.BlocksPerPlane,
		PagesPerBlock:      cfg.PagesPerBlock,
		PageSize:           cfg.PageSizeBytes,
	}
	tim := nand.Timing{
		ReadPage:    sim.VTime(cfg.ReadLatency.Nanoseconds()),
		ProgramPage: sim.VTime(cfg.ProgramLatency.Nanoseconds()),
		EraseBlock:  sim.VTime(cfg.EraseLatency.Nanoseconds()),
		CmdOverhead: sim.Microsecond,
		ChannelMBps: cfg.ChannelMBps,
	}.WithDefaultEnergy()
	array, err := nand.New(eng, geo, tim)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}
	array.MaxPE = uint32(cfg.MaxPECycles)
	switch cfg.Domains {
	case "", "auto":
		// The parallel path only buys wall-clock time when workers can
		// actually run in parallel; on one CPU the sequential loop is
		// strictly cheaper. Either way the output is byte-identical.
		if runtime.GOMAXPROCS(0) > 1 {
			array.EnableDomains(0)
		}
	case "on":
		array.EnableDomains(0)
	case "off":
	default:
		return nil, fmt.Errorf("checkin: unknown Domains %q (want on, off or auto)", cfg.Domains)
	}
	if cfg.errorModelEnabled() {
		rcfg := nand.ReliabilityConfig{
			ReadRetryRate:     cfg.ReadRetryRate,
			RetryEscalation:   cfg.RetryEscalation,
			UncorrectableRate: cfg.UncorrectableRate,
			ProgramFailRate:   cfg.ProgramFailRate,
			EraseFailRate:     cfg.EraseFailRate,
			WearFactor:        cfg.WearErrorFactor,
		}
		// A fixed odd mixing constant decorrelates the fault stream from
		// the workload RNGs derived from the same seed.
		relSeed := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0x6e616e642d72656c
		if err := array.EnableReliability(rcfg, relSeed); err != nil {
			return nil, fmt.Errorf("checkin: %w", err)
		}
	}

	fcfg := ftl.DefaultConfig()
	fcfg.UnitSize = cfg.MappingUnit
	fcfg.OverProvision = cfg.OverProvision
	fcfg.MapCacheBytes = int64(cfg.MapCacheMB) << 20
	fcfg.Parallelism = geo.TotalDies()
	if fcfg.Parallelism > 8 {
		fcfg.Parallelism = 8
	}
	deferGC := cfg.Strategy == StrategyCheckIn
	if cfg.DeferGC != nil {
		deferGC = *cfg.DeferGC
	}
	fcfg.DeferGC = deferGC
	switch cfg.GCPolicy {
	case "", "greedy":
		fcfg.GCPolicy = ftl.GCGreedy
	case "cost-benefit":
		fcfg.GCPolicy = ftl.GCCostBenefit
	case "fifo":
		fcfg.GCPolicy = ftl.GCFIFO
	default:
		return nil, fmt.Errorf("checkin: unknown GCPolicy %q (want greedy, cost-benefit or fifo)", cfg.GCPolicy)
	}
	switch cfg.FTLMap {
	case "dram":
	case "dftl":
		fcfg.FlashMap = true
		fcfg.CMTEntries = cfg.CMTEntries
		fcfg.CMTCleanWindow = cfg.CMTCleanWindow
	default:
		return nil, fmt.Errorf("checkin: unknown FTLMap %q (want dram or dftl)", cfg.FTLMap)
	}
	switch cfg.CMTFill {
	case "", "on":
	case "off":
		fcfg.CMTNoFill = true
	default:
		return nil, fmt.Errorf("checkin: unknown CMTFill %q (want on or off)", cfg.CMTFill)
	}
	switch cfg.RemapBatch {
	case "", "on":
	case "off":
		fcfg.CMTNoBatch = true
	default:
		return nil, fmt.Errorf("checkin: unknown RemapBatch %q (want on or off)", cfg.RemapBatch)
	}
	fcfg.MetaFlushEntries = cfg.MetaFlushEntries
	var tracer *trace.Tracer
	if cfg.TraceCapacity > 0 {
		tracer = trace.New(cfg.TraceCapacity)
	}
	fcfg.Tracer = tracer
	fcfg.Injector = cfg.Injector
	fcfg.WearDeltaThreshold = cfg.WearDeltaThreshold
	fcfg.MaxReadRetries = cfg.MaxReadRetries
	if cfg.errorModelEnabled() {
		fcfg.SpareBlocksPerDie = cfg.SpareBlocksPerDie
	}
	translation, err := ftl.New(eng, array, fcfg)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	dcfg := ssd.DefaultConfig()
	dcfg.QueueDepth = cfg.QueueDepth
	dcfg.PCIeMBps = cfg.PCIeMBps
	dcfg.CacheBytes = int64(cfg.DataCacheMB) << 20
	dcfg.Injector = cfg.Injector
	dcfg.CommandTimeout = sim.VTime(cfg.CommandTimeout.Nanoseconds())
	dcfg.TimeoutBackoff = sim.VTime(cfg.TimeoutBackoff.Nanoseconds())
	device, err := ssd.New(eng, translation, dcfg)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	host, err := newHostEngine(eng, device, cfg, tracer)
	if err != nil {
		return nil, fmt.Errorf("checkin: %w", err)
	}

	return &DB{cfg: cfg, eng: eng, device: device, host: host, tracer: tracer}, nil
}

// Config returns the resolved configuration the DB runs with.
func (db *DB) Config() Config { return db.cfg }

// Load bulk-populates every record (the YCSB load phase). Call once before
// the first Run.
//
// After the bulk load, Load drains the simulation to a canonical rest point:
// the deallocator tick — the only perpetually self-rescheduling event — is
// paused so its queued firing disarms instead of re-arming, the event queue
// runs dry, and the kernel state is recorded before the tick is re-armed.
// Every path (direct run, snapshot capture, fork restore) passes through the
// same rest point, which is what makes snapshot-on and snapshot-off runs
// byte-identical: re-arming is always the next scheduled action taken from
// identical (clock, sequence) state.
func (db *DB) Load() {
	db.host.Load()
	db.device.PauseDeallocator()
	db.eng.Run()
	rp := db.eng.State()
	db.restPoint = &rp
	db.device.ResumeDeallocator()
}

// Run executes a workload phase and returns its metrics.
func (db *DB) Run(spec RunSpec) (*Metrics, error) { return db.host.Run(spec) }

// SimulateRecovery models a crash at the current instant and returns what a
// restarted instance would reconstruct from the checkpoint and journal.
func (db *DB) SimulateRecovery() *RecoveryReport { return db.host.SimulateRecovery() }

// DurableVersions returns per-key durable versions (ground truth for
// recovery validation).
func (db *DB) DurableVersions() []int64 { return db.host.DurableVersions() }

// Host exposes the storage engine behind the backend-agnostic interface.
func (db *DB) Host() HostEngine { return db.host }

// Device exposes the simulated SSD.
func (db *DB) Device() *ssd.Device { return db.device }

// Sim exposes the simulation kernel.
func (db *DB) Sim() *sim.Engine { return db.eng }

// Lifetime returns the projected flash lifetime per the paper's Equation
// (1), using total simulated time as Top. Compare across configurations.
func (db *DB) Lifetime() float64 {
	return db.device.FTL().Array().Lifetime(db.eng.Now())
}

// FlashEnergyMJ returns cumulative flash energy in millijoules — the
// energy side of the paper's write-amplification motivation.
func (db *DB) FlashEnergyMJ() float64 {
	return float64(db.device.FTL().Array().EnergyNJ()) / 1e6
}

// Trace returns the structured event tracer, or nil when tracing is
// disabled (Config.TraceCapacity == 0).
func (db *DB) Trace() *trace.Tracer { return db.tracer }

// JournalStats returns journaling-layer counters (space overhead etc.);
// under the LSM backend these are the write-ahead log's counters.
func (db *DB) JournalStats() core.JournalStats { return db.host.JournalStats() }

// SimulateSPOR models a sudden power-off at the device level: the SSD
// rebuilds its mapping table purely from OOB records, remap aliases and
// trim extents (the paper's Section III-G), and the report compares the
// rebuilt table against the live one. Flush-backed state must match
// exactly; units still in the volatile write buffer are (correctly) lost.
func (db *DB) SimulateSPOR() *ftl.SPORReport {
	return db.device.SimulateSPOR()
}

// Health returns the device's reliability summary — grown bad blocks,
// spare blocks left, and whether it degraded to read-only mode. All zero
// unless the NAND error model is enabled.
func (db *DB) Health() ftl.Health { return db.device.Health() }
