package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/workload"
)

// TestShardBenchSmoke runs the acceptance scenario — 10 shards, 10^7
// open-loop ops, multi-tenant SLO accounting — and writes wall-clock,
// memory-footprint and per-tenant SLO evidence to the file named by
// BENCH_SHARD_OUT (skipped when unset, so ordinary test runs stay fast).
// The committed BENCH_shard.json is a snapshot of one such run.
//
// Bounded memory is the point: arrivals are generated window by window, the
// per-shard queue recycles whenever it drains, latency lives in O(1)
// streaming sketches, and the modeled million-client population costs one
// RNG draw per op — so the heap high-water mark must stay far below
// anything proportional to the 10^7-op stream.
func TestShardBenchSmoke(t *testing.T) {
	out := os.Getenv("BENCH_SHARD_OUT")
	if out == "" {
		t.Skip("set BENCH_SHARD_OUT=<path> to run the sharded scale-out bench smoke")
	}
	base := checkin.DefaultConfig()
	base.Strategy = checkin.StrategyCheckIn
	base.CheckpointInterval = 100 * time.Millisecond
	cfg := Config{
		Shards: 10,
		Base:   base,
		Arrival: workload.ArrivalConfig{
			Process:    "poisson",
			RatePerSec: 500_000,
			Tenants:    DefaultTenants(4, 5000),
		},
		TotalOps:        10_000_000,
		Workers:         32,
		Sched:           SchedStaggered,
		AdmitRatePerSec: 475_000,
		Seed:            1,
	}
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	if rep.Offered != uint64(cfg.TotalOps) {
		t.Fatalf("offered %d, want %d", rep.Offered, cfg.TotalOps)
	}
	if rep.Done+rep.Shed != rep.Offered {
		t.Fatalf("conservation: done %d + shed %d != offered %d", rep.Done, rep.Shed, rep.Offered)
	}

	tenants := make([]map[string]any, 0, len(rep.Tenants))
	for _, tr := range rep.Tenants {
		tenants = append(tenants, map[string]any{
			"tenant":    tr.Name,
			"offered":   tr.Offered,
			"shed":      tr.Shed,
			"done":      tr.Done,
			"mean":      tr.Mean.String(),
			"p50":       tr.P50.String(),
			"p99":       tr.P99.String(),
			"p99_9":     tr.P999.String(),
			"slo":       tr.SLO.String(),
			"miss_pct":  round3(tr.SLOMissPct),
			"read_p99":  tr.ReadP99.String(),
			"write_p99": tr.WriteP99.String(),
		})
	}
	shardRows := make([]map[string]any, 0, len(rep.ShardRows))
	for _, sr := range rep.ShardRows {
		shardRows = append(shardRows, map[string]any{
			"shard":       sr.ID,
			"done":        sr.Done,
			"peak_queue":  sr.PeakQueue,
			"checkpoints": sr.Checkpoints,
			"mean_ckpt":   sr.MeanCkpt.String(),
			"last_done":   sr.LastDone.String(),
		})
	}
	report := map[string]any{
		"description": fmt.Sprintf(
			"Sharded scale-out acceptance scenario: %d shards x %d workers, %d open-loop ops at %.0f/s poisson over %d tenants (modeled 1M-client population), %s checkpoint scheduling, admission at %.0f/s. Heap growth is the run's high-water footprint over the pre-run baseline — bounded because arrivals stream window-by-window into recycled queues and O(1) latency sketches, never materializing the op stream.",
			cfg.Shards, cfg.Workers, cfg.TotalOps, cfg.Arrival.RatePerSec,
			len(cfg.Arrival.Tenants), cfg.Sched, cfg.AdmitRatePerSec),
		"machine": map[string]any{
			"cpu":    cpuModel(),
			"cores":  runtime.NumCPU(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
		},
		"config": map[string]any{
			"shards": cfg.Shards, "workers": cfg.Workers, "ops": cfg.TotalOps,
			"rate_per_sec": cfg.Arrival.RatePerSec, "cksched": cfg.Sched,
			"admit_rate_per_sec": cfg.AdmitRatePerSec, "seed": cfg.Seed,
			"fingerprint": fmt.Sprintf("%016x", rep.Fingerprint),
		},
		"results": map[string]any{
			"offered": rep.Offered, "admitted": rep.Admitted,
			"shed": rep.Shed, "done": rep.Done,
			"virtual_makespan":    rep.Elapsed.String(),
			"wall_seconds":        round3(rep.Wall.Seconds()),
			"load_wall_seconds":   round3(rep.LoadWall.Seconds()),
			"ops_per_wall_sec":    int64(float64(rep.Done) / rep.Wall.Seconds()),
			"heap_sys_growth_mib": round3(float64(after.HeapSys-before.HeapSys) / (1 << 20)),
			"live_heap_mib":       round3(float64(live.HeapAlloc) / (1 << 20)),
			"total_alloc_mib":     round3(float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)),
		},
		"tenants":     tenants,
		"shards":      shardRows,
		"determinism": "Rendered reports are byte-identical across shard-parallelism on/off and GOMAXPROCS settings (TestShardedDeterminismMatrix, CI -race -cpu 1,4); multi-core speedup evidence is carried by those GOMAXPROCS-forcing tests since this container is single-core.",
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("10-shard %d-op run: %.1fs wall, %.1f MiB heap-sys growth, %.1f MiB live after GC, wrote %s",
		cfg.TotalOps, rep.Wall.Seconds(), float64(after.HeapSys-before.HeapSys)/(1<<20),
		float64(live.HeapAlloc)/(1<<20), out)
}

func round3(v float64) float64 { return float64(int64(v*1000)) / 1000 }

// cpuModel extracts the CPU model name (Linux) for the machine stanza.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
