package main

import (
	"fmt"
	"runtime"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/shard"
	"github.com/checkin-kv/checkin/internal/workload"
)

// A workloadDef is one benchmark input: the stack it runs, the traffic it
// offers and why it was chosen. Closed-loop workloads drive a single
// checkin.DB; shard-open drives a shard.ShardedDB.
type workloadDef struct {
	name string
	why  string

	// Stack the workload claims to run; assertStack checks it.
	engine string // "journal" or "lsm"
	ftlMap string // "dram" or "dftl"
	shards int    // 0 for a single closed-loop stack

	config func(seed int64) checkin.Config

	// Closed loop: warm-up then measured phase on the same DB.
	spec    checkin.RunSpec
	warmup  int64
	queries int64

	// Open loop (shards > 0).
	rate   float64
	ops    int64
	sched  string
	tenant int
}

// paperConfig is the paper's headline stack: Check-In on the full 512 MB
// device, 50k keys, 300 ms checkpoint interval.
func paperConfig(seed int64) checkin.Config {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = checkin.StrategyCheckIn
	cfg.Seed = seed
	cfg.Keys = 50_000
	cfg.CheckpointInterval = 300 * time.Millisecond
	return cfg
}

var workloads = []workloadDef{
	{
		name:   "ycsb-a",
		why:    "the paper's headline config: checkpoint remap, the sim and workload hot path, reads beside writes",
		engine: "journal", ftlMap: "dram",
		config:  paperConfig,
		spec:    checkin.RunSpec{Threads: 32, Mix: checkin.WorkloadA, Zipfian: true},
		warmup:  200_000,
		queries: 300_000,
	},
	{
		name:   "wo-gc-dftl",
		why:    "write-only uniform traffic on a 64 MB device with a DFTL map: FTL GC and translation writeback dominate",
		engine: "journal", ftlMap: "dftl",
		config: func(seed int64) checkin.Config {
			cfg := paperConfig(seed)
			cfg.BlocksPerPlane = 16 // 64 MB raw, the fig8b device
			cfg.Keys = 10_000
			cfg.JournalHalfMB = 4
			cfg.FTLMap = "dftl"
			cfg.CMTEntries = 4096
			return cfg
		},
		spec:   checkin.RunSpec{Threads: 32, Mix: checkin.WorkloadWO},
		warmup: 200_000,
		// Its p99.9 rests on GC stalls; 300k queries a sub-seed left a
		// 10 % spread between seeds.
		queries: 600_000,
	},
	{
		name:   "lsm-f",
		why:    "YCSB-F on the leveled LSM engine: WAL, flush and compaction run while the journal core is idle",
		engine: "lsm", ftlMap: "dram",
		config: func(seed int64) checkin.Config {
			cfg := paperConfig(seed)
			cfg.Engine = "lsm"
			cfg.Compaction = "leveled"
			return cfg
		},
		spec:    checkin.RunSpec{Threads: 32, Mix: checkin.WorkloadF, Zipfian: true},
		warmup:  200_000,
		queries: 600_000,
	},
	{
		name:   "shard-open",
		why:    "2 shards, 3 tenants, open-loop Poisson below the knee: the only open-loop and two-core path",
		engine: "journal", ftlMap: "dram", shards: 2,
		config: paperConfig,
		rate:   90_000, // the knee lies between 100k and 140k ops/s
		ops:    1_400_000,
		sched:  shard.SchedStaggered,
		tenant: 3,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// scaled shrinks the workload's query counts for smoke runs.
func (w workloadDef) scaled(scale float64) workloadDef {
	n := func(v int64) int64 {
		if v == 0 {
			return 0
		}
		return max(1000, int64(float64(v)*scale))
	}
	w.warmup, w.queries, w.ops = n(w.warmup), n(w.queries), n(w.ops)
	return w
}

// shardConfig builds the sharded run. The seed reaches only Base.Seed;
// shard.Config.Seed defaults to it.
func (w workloadDef) shardConfig(seed int64) shard.Config {
	return shard.Config{
		Shards: w.shards,
		Base:   w.config(seed),
		Arrival: workload.ArrivalConfig{
			Process:    "poisson",
			RatePerSec: w.rate,
			Tenants:    shard.DefaultTenants(w.tenant, 2000),
		},
		TotalOps: w.ops,
		Sched:    w.sched,
	}
}

// assertStack checks that db runs the engine and map the workload names.
func (w workloadDef) assertStack(db *checkin.DB) error {
	var engine string
	switch db.Host().(type) {
	case *core.Engine:
		engine = "journal"
	case *lsm.Engine:
		engine = "lsm"
	default:
		engine = fmt.Sprintf("%T", db.Host())
	}
	if engine != w.engine || db.Config().Engine != w.engine {
		return fmt.Errorf("stack: want engine %s, host is %s (config %q)", w.engine, engine, db.Config().Engine)
	}
	if got := db.Config().FTLMap; got != w.ftlMap {
		return fmt.Errorf("stack: want ftl map %s, config has %s", w.ftlMap, got)
	}
	return nil
}

// assertShards checks the shard report against the workload's shard count
// and the two-core claim.
func (w workloadDef) assertShards(rep *shard.Report) error {
	if rep.Shards != w.shards || len(rep.ShardRows) != w.shards {
		return fmt.Errorf("stack: want %d shards, report has %d (%d rows)", w.shards, rep.Shards, len(rep.ShardRows))
	}
	if want := runtime.GOMAXPROCS(0) > 1; rep.Parallel != want {
		return fmt.Errorf("stack: shard parallelism %v with GOMAXPROCS %d", rep.Parallel, runtime.GOMAXPROCS(0))
	}
	return nil
}
