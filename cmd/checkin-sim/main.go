// Command checkin-sim runs one simulated key-value store configuration and
// prints its metrics — the single-run front end to the Check-In
// reproduction (checkin-bench drives full paper experiments).
//
// Usage:
//
//	checkin-sim -strategy Check-In -threads 64 -queries 100000 -workload A
//	checkin-sim -print-config
//	checkin-sim -strategy Baseline -recover
//	checkin-sim -crashpoints -strategy=Check-In -seed=3
//	checkin-sim -crashpoints -strategy=Check-In -seed=3 -site=journal-commit -hit=17
//	checkin-sim -strategy Check-In -errors heavy
//	checkin-sim -crashpoints -strategy=Check-In -seed=2 -site=read-retry -hit=5 -errors=heavy
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/check"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/shard"
)

func main() {
	var (
		strategy    = flag.String("strategy", "Check-In", "Baseline | ISC-A | ISC-B | ISC-C | Check-In")
		threads     = flag.Int("threads", 64, "client threads")
		queries     = flag.Int64("queries", 50_000, "total queries")
		wl          = flag.String("workload", "A", "A | F | WO")
		dist        = flag.String("distribution", "zipfian", "zipfian | uniform")
		keys        = flag.Int64("keys", 20_000, "record count")
		interval    = flag.Duration("interval", 300*time.Millisecond, "checkpoint interval (simulated)")
		unit        = flag.Int("unit", 0, "FTL mapping unit bytes (0 = strategy default)")
		seed        = flag.Int64("seed", 1, "simulation seed")
		lock        = flag.Bool("lock", false, "lock query admission during checkpoints")
		doRecover   = flag.Bool("recover", false, "simulate a crash + recovery after the run")
		doSPOR      = flag.Bool("spor", false, "simulate a sudden power-off + device OOB recovery after the run")
		timeline    = flag.String("timeline", "", "write a CSV timeline of the run to this file (10ms samples)")
		dumpTrace   = flag.Bool("trace", false, "print the run's structured event trace summary and tail")
		printConfig = flag.Bool("print-config", false, "print the resolved configuration and exit")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		crashpoints = flag.Bool("crashpoints", false, "run the crash-point verification harness instead of a benchmark")
		site        = flag.String("site", "", "crashpoints: injection site name (empty = every site the census finds)")
		hit         = flag.Int("hit", 0, "crashpoints: 1-based hit index of -site to crash at")
		errProfile  = flag.String("errors", "off", "NAND error profile: off | light | heavy")
		engine      = flag.String("engine", "journal", "host storage-engine backend: journal (paper's journal+JMT) | lsm (WAL + memtable + sorted runs)")
		compaction  = flag.String("compaction", "leveled", "lsm: compaction policy, leveled | tiered")
		memtable    = flag.Int("memtable", 0, "lsm: memtable entry bound before a flush epoch (0 = default 4096)")
		domains     = flag.String("domains", "auto", "parallel DES kernel (per-channel NAND event domains): on | off | auto (output is byte-identical either way)")
		ftlmap      = flag.String("ftlmap", "dram", "FTL mapping-table model: dram | dftl (flash-resident translation pages)")
		cmtfill     = flag.String("cmtfill", "on", "dftl: on a CMT miss, fill every entry the fetched translation page covers: on | off (off = demanded entry only)")
		cmtcw       = flag.Int("cmtcw", 0, "dftl: clean-first eviction search window in entries (0 = default 32, 1 = strict LRU)")
		remapbatch  = flag.String("remapbatch", "on", "dftl: batch translation writeback across each checkpoint cut: on | off (off = interleave threshold writebacks with the cut)")
		shards      = flag.Int("shards", 0, "run a sharded scale-out simulation across this many engine+SSD stacks (0 = single-stack mode)")
		tenants     = flag.Int("tenants", 3, "sharded mode: tenant count")
		arrival     = flag.String("arrival", "poisson:150000", "sharded mode: open-loop arrival spec, poisson:RATE[:flash] | diurnal:RATE:AMP:PERIOD[:flash]")
		cksched     = flag.String("cksched", "sync", "sharded mode: cross-shard checkpoint scheduling policy, sync | staggered | global")
		shardPar    = flag.String("shard-parallel", "auto", "sharded mode: run shard event domains on parallel goroutines, on | off | auto (output is byte-identical either way)")
		admitRate   = flag.Float64("admit-rate", 0, "sharded mode: aggregate admitted ops/sec across per-tenant token buckets (0 = no admission control)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	s, err := checkin.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	profile, err := checkin.ParseErrorProfile(*errProfile)
	if err != nil {
		fatal(err)
	}
	if *ftlmap != "dram" && *ftlmap != "dftl" {
		fatal(fmt.Errorf("bad -ftlmap %q (want dram or dftl)", *ftlmap))
	}
	if !validEngine(*engine) {
		fatal(fmt.Errorf("bad -engine %q (registered: %s)", *engine, strings.Join(checkin.EngineNames(), ", ")))
	}
	if *compaction != "leveled" && *compaction != "tiered" {
		fatal(fmt.Errorf("bad -compaction %q (want leveled or tiered)", *compaction))
	}
	if *crashpoints {
		runCrashpoints(s, *seed, *site, *hit, profile.Name, *ftlmap, *engine, *compaction)
		return
	}
	// Settings both modes share; single-stack mode adds its own below.
	cfg := checkin.DefaultConfig()
	cfg.Strategy = s
	cfg.Engine = *engine
	cfg.CheckpointInterval = *interval
	cfg.Seed = *seed
	cfg.Domains = *domains
	cfg.FTLMap = *ftlmap
	cfg.CMTFill = *cmtfill
	cfg.CMTCleanWindow = *cmtcw
	cfg.RemapBatch = *remapbatch
	cfg.Compaction = *compaction
	cfg.MemtableEntries = *memtable
	cfg.MappingUnit = *unit
	cfg.LockDuringCheckpoint = *lock
	cfg = profile.Apply(cfg)
	if *shards > 0 {
		// Sharded mode derives its own key space, traffic and report: a
		// single-stack flag set alongside -shards would be dropped silently.
		var stackOnly []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "threads", "workload", "distribution", "keys", "recover", "spor", "timeline", "trace",
				"print-config":
				stackOnly = append(stackOnly, "-"+f.Name)
			}
		})
		if len(stackOnly) > 0 {
			fatal(fmt.Errorf("%s: single-stack mode only, not with -shards", strings.Join(stackOnly, ", ")))
		}
		runSharded(cfg, *shards, *tenants, *arrival, *cksched, *shardPar,
			*admitRate, *queries)
		return
	}
	var mix checkin.Mix
	switch *wl {
	case "A":
		mix = checkin.WorkloadA
	case "F":
		mix = checkin.WorkloadF
	case "WO":
		mix = checkin.WorkloadWO
	default:
		fatal(fmt.Errorf("unknown workload %q (want A, F or WO)", *wl))
	}
	zipf := *dist == "zipfian"
	if !zipf && *dist != "uniform" {
		fatal(fmt.Errorf("unknown distribution %q", *dist))
	}

	cfg.Keys = *keys
	if *dumpTrace {
		cfg.TraceCapacity = 10_000
	}

	if *printConfig {
		fmt.Printf("%+v\n", cfg)
		return
	}

	db, err := checkin.Open(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loading %d records (%s)...\n", cfg.Keys, cfg.Records.Name())
	db.Load()

	fmt.Printf("running %d queries, workload %s, %s, %d threads, strategy %v\n",
		*queries, *wl, *dist, *threads, s)
	start := time.Now()
	spec := checkin.RunSpec{
		Threads:      *threads,
		TotalQueries: *queries,
		Mix:          mix,
		Zipfian:      zipf,
	}
	if *timeline != "" {
		spec.SampleInterval = 10 * 1000 * 1000 // 10ms in simulated ns
	}
	m, err := db.Run(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s", m.Summary())
	if profile.Name != "off" {
		ns := db.Device().FTL().Array().Stats()
		h := db.Health()
		fmt.Printf("nand faults        %d retries, %d uncorrectable, %d program fails, %d erase fails\n",
			ns.ReadRetries, ns.UncorrectableReads, ns.ProgramFails, ns.EraseFails)
		fmt.Printf("device health      %d retired blocks, %d spares left, read-only=%v\n",
			h.RetiredBlocks, h.SparesLeft, h.ReadOnly)
	}
	fmt.Printf("journal space overhead %.3f\n", m.JournalSpaceOverhead())
	fmt.Printf("lifetime projection    %.0f (PEC*Top/BEC)\n", db.Lifetime())
	fmt.Printf("wall time              %.2fs\n", time.Since(start).Seconds())

	if *timeline != "" && m.Timeline != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fatal(err)
		}
		if err := m.Timeline.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if spark, err := m.Timeline.Sparkline("kqps", 60); err == nil {
			fmt.Printf("throughput timeline    %s\n", spark)
		}
		fmt.Printf("timeline written to %s (%d samples)\n", *timeline, m.Timeline.Len())
	}

	if *dumpTrace && db.Trace() != nil {
		fmt.Printf("\nevent counts:\n%s", db.Trace().Summary())
		evs := db.Trace().Events()
		tail := evs
		if len(tail) > 20 {
			tail = tail[len(tail)-20:]
		}
		fmt.Println("last events:")
		for _, ev := range tail {
			fmt.Println(" ", ev)
		}
	}

	if *doSPOR {
		rep := db.SimulateSPOR()
		fmt.Printf("\n%s\n", rep)
		if rep.Mismatches != 0 {
			fatal(fmt.Errorf("SPOR mismatches: %d", rep.Mismatches))
		}
	}

	if *doRecover {
		rep := db.SimulateRecovery()
		ok := 0
		durable := db.DurableVersions()
		for k, v := range durable {
			if rep.Recovered[k] == v {
				ok++
			}
		}
		fmt.Printf("\nrecovery: %d/%d keys match durable state, %d logs replayed, %v recovery time\n",
			ok, len(durable), rep.ReplayedLogs, rep.RecoveryTime)
		if ok != len(durable) {
			fatal(fmt.Errorf("recovery mismatch: %d keys diverged", len(durable)-ok))
		}
	}
}

// runCrashpoints drives the internal/check differential harness from the
// CLI. With -site/-hit it reproduces exactly one armed crash — the mode a
// failing test's repro line invokes. Without them it runs the full matrix
// for the strategy and seed: a census of every injection site the workload
// reaches, then sampled armed crashes at each, validating host recovery,
// device SPOR, and FTL invariants at every crash instant.
func runCrashpoints(s checkin.Strategy, seed int64, siteName string, hit int, errProfile, ftlmap, engine, compaction string) {
	opts := check.DefaultOptions()
	switch {
	case engine == "lsm":
		// LSMOptions mirrors the LSM crash-matrix tests, so repro lines
		// carrying -engine=lsm [-compaction=tiered] replay identically.
		opts = check.LSMOptions(compaction)
		if ftlmap != "dram" {
			fatal(fmt.Errorf("-engine=lsm -crashpoints does not take -ftlmap=%s", ftlmap))
		}
	case ftlmap != "dram":
		opts = check.DFTLOptions()
	}
	if errProfile != "off" {
		opts.Errors = errProfile
	}
	tr, err := check.NewTrace(opts, seed)
	if err != nil {
		fatal(err)
	}
	if siteName != "" {
		site, err := inject.ParseSite(siteName)
		if err != nil {
			fatal(err)
		}
		if hit < 1 {
			hit = 1
		}
		res := check.RunCrash(s, seed, site, hit, tr, opts)
		fmt.Println(res)
		if res.Err != nil {
			os.Exit(1)
		}
		if !res.Fired {
			fatal(fmt.Errorf("site %s never reached hit %d on this trace", site, hit))
		}
		return
	}
	results, census, err := check.CrashMatrix(s, seed, tr, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("crash-point census (strategy=%s seed=%d):\n", s, seed)
	for _, st := range inject.Sites() {
		fmt.Printf("  %-15s %6d hits\n", st, census.RunHits[st])
	}
	failures := 0
	for _, r := range results {
		fmt.Println(" ", r)
		if r.Err != nil || !r.Fired {
			failures++
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d of %d crash-point runs failed", failures, len(results)))
	}
	fmt.Printf("crashpoints: all %d armed runs validated\n", len(results))
}

// runSharded drives the multi-device scale-out front end: N independent
// engine+SSD stacks under open-loop multi-tenant traffic with a cross-shard
// checkpoint scheduling policy. The rendered report is deterministic; only
// the trailing wall-time line varies between machines. base is the
// per-shard stack configuration, for either engine.
func runSharded(base checkin.Config, shards, tenants int,
	arrival, cksched, parallel string, admitRate float64, ops int64) {
	arr, err := shard.ParseArrival(arrival)
	if err != nil {
		fatal(err)
	}
	arr.Tenants = shard.DefaultTenants(tenants, 2000)
	cfg := shard.Config{
		Shards:          shards,
		Base:            base,
		Arrival:         arr,
		TotalOps:        ops,
		Sched:           cksched,
		AdmitRatePerSec: admitRate,
		Parallel:        parallel,
		Seed:            base.Seed,
	}
	db, err := shard.Open(cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := db.Run()
	if err != nil {
		fatal(err)
	}
	rep.Render(os.Stdout)
	fmt.Printf("wall time %.2fs (load %.2fs)\n", rep.Wall.Seconds(), rep.LoadWall.Seconds())
}

func validEngine(name string) bool {
	for _, n := range checkin.EngineNames() {
		if n == name {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "checkin-sim:", err)
	os.Exit(1)
}
