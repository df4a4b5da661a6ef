package checkin

import (
	"fmt"
	"sort"

	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/trace"
)

// HostEngine is the storage-engine contract every backend implements: the
// journal+JMT engine of the paper (internal/core, name "journal") and the
// LSM-tree engine (internal/lsm, name "lsm"). The device below, the
// workload above, the checkpoint strategies, the crash-injection
// instrument and the verification oracles all speak to the engine through
// this interface, so backends are interchangeable per Config.Engine and
// directly comparable on identical inputs. The query and checkpoint half is
// core.Host, the contract the shared driver (core.Drive), the shard workers
// and the cross-backend oracle run operations through.
type HostEngine interface {
	core.Host

	// Load bulk-populates every record (the YCSB load phase).
	Load()
	// Run executes a measured workload phase under core.Drive.
	Run(spec core.RunSpec) (*core.Metrics, error)
	// Sync blocks until every write issued so far is durable.
	Sync(p *sim.Proc)

	// SetCommitHook observes every (key, version) the instant it becomes
	// durable — the crash-consistency oracle's model feed.
	SetCommitHook(fn func(key, version int64))

	// Recovery truth.
	RecoveredVersions() []int64
	SimulateRecovery() *core.RecoveryReport
	DurableVersions() []int64
	InMemoryVersions() []int64

	// Introspection.
	Device() *ssd.Device
	Sim() *sim.Engine
	Metrics() *core.Metrics
	JournalStats() core.JournalStats

	// Snapshot-and-fork: the backend's mutable state as an opaque value.
	// RestoreState must reject a value captured from a different backend.
	SnapshotState() (any, error)
	RestoreState(s any) error
}

// Interface checks: both backends implement the full contract.
var (
	_ HostEngine = (*core.Engine)(nil)
	_ HostEngine = (*lsm.Engine)(nil)
)

// engineBuilder assembles one backend over an already-built device stack.
type engineBuilder func(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error)

// engineBuilders is the backend registry, keyed by Config.Engine.
var engineBuilders = map[string]engineBuilder{
	"journal": buildJournalEngine,
	"lsm":     buildLSMEngine,
}

// EngineNames lists the registered backends in stable order.
func EngineNames() []string {
	names := make([]string, 0, len(engineBuilders))
	for n := range engineBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func buildJournalEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	ecfg := core.DefaultConfig()
	ecfg.Strategy = cfg.Strategy
	ecfg.Keys = cfg.Keys
	ecfg.Sizer = cfg.Records
	ecfg.JournalHalfBytes = int64(cfg.JournalHalfMB) << 20
	ecfg.CheckpointInterval = sim.VTime(cfg.CheckpointInterval.Nanoseconds())
	ecfg.JournalSoftFrac = cfg.JournalSoftFrac
	ecfg.CompressRatio = cfg.CompressRatio
	ecfg.AdaptiveLiveBudget = cfg.AdaptiveLiveBudget
	ecfg.Tracer = tracer
	ecfg.HostCacheEntries = cfg.HostCacheEntries
	ecfg.LockDuringCheckpoint = cfg.LockDuringCheckpoint
	ecfg.Injector = cfg.Injector
	ecfg.Seed = cfg.Seed
	return core.NewEngine(eng, device, ecfg)
}

func buildLSMEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	lcfg := lsm.DefaultConfig()
	lcfg.Strategy = cfg.Strategy
	lcfg.Keys = cfg.Keys
	lcfg.Sizer = cfg.Records
	lcfg.WALHalfBytes = int64(cfg.JournalHalfMB) << 20
	lcfg.WALSoftFrac = cfg.JournalSoftFrac
	lcfg.MemtableEntries = cfg.MemtableEntries
	lcfg.Policy = cfg.Compaction
	lcfg.CheckpointInterval = sim.VTime(cfg.CheckpointInterval.Nanoseconds())
	lcfg.LockDuringCheckpoint = cfg.LockDuringCheckpoint
	lcfg.AdaptiveLiveBudget = cfg.AdaptiveLiveBudget
	lcfg.Tracer = tracer
	lcfg.Injector = cfg.Injector
	lcfg.Seed = cfg.Seed
	return lsm.New(eng, device, lcfg)
}

// newHostEngine resolves cfg.Engine against the registry.
func newHostEngine(eng *sim.Engine, device *ssd.Device, cfg Config, tracer *trace.Tracer) (HostEngine, error) {
	build, ok := engineBuilders[cfg.Engine]
	if !ok {
		return nil, fmt.Errorf("checkin: unknown Engine %q (registered: %v)", cfg.Engine, EngineNames())
	}
	return build(eng, device, cfg, tracer)
}
