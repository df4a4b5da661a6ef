package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// TestRouterBijection: the Feistel permutation routes every global key to a
// unique (shard, local) coordinate, locals stay inside the dense per-shard
// namespace, and the per-shard key counts balance to within the pigeonhole
// bound.
func TestRouterBijection(t *testing.T) {
	for _, tc := range []struct {
		total  int64
		shards int
	}{{1000, 4}, {1, 1}, {7, 3}, {65536, 10}, {99_991, 7}} {
		r := newRouter(tc.total, tc.shards)
		seen := make(map[int64]bool, tc.total)
		perShard := make([]int64, tc.shards)
		for g := int64(0); g < tc.total; g++ {
			sh, local := r.place(g)
			if sh < 0 || sh >= tc.shards {
				t.Fatalf("total=%d shards=%d: key %d routed to shard %d", tc.total, tc.shards, g, sh)
			}
			if local < 0 || local >= r.shardKeys {
				t.Fatalf("total=%d shards=%d: key %d local %d outside [0, %d)", tc.total, tc.shards, g, local, r.shardKeys)
			}
			coord := int64(sh)*r.shardKeys + local
			if seen[coord] {
				t.Fatalf("total=%d shards=%d: collision at shard %d local %d", tc.total, tc.shards, sh, local)
			}
			seen[coord] = true
			perShard[sh]++
		}
		min, max := perShard[0], perShard[0]
		for _, n := range perShard {
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("total=%d shards=%d: unbalanced placement %v", tc.total, tc.shards, perShard)
		}
	}
}

// TestRouterSpreadsTenants: contiguous tenant key ranges must spread across
// every shard, not land on one — the point of hashing before sharding.
func TestRouterSpreadsTenants(t *testing.T) {
	r := newRouter(8000, 8)
	hit := make(map[int]bool)
	for g := int64(0); g < 1000; g++ { // one tenant's contiguous namespace
		sh, _ := r.place(g)
		hit[sh] = true
	}
	if len(hit) != 8 {
		t.Fatalf("tenant namespace touched only %d of 8 shards", len(hit))
	}
}

// TestTokenBucket: refill follows virtual time, bursts cap, dry buckets
// shed, and the decision stream is a pure function of arrival times.
func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(1000, 10) // 1k ops/s, burst 10
	admitted := 0
	for i := 0; i < 20; i++ { // simultaneous burst
		if b.admit(0) {
			admitted++
		}
	}
	if admitted != 10 {
		t.Fatalf("burst admitted %d, want 10", admitted)
	}
	if b.admit(500 * sim.Microsecond) {
		t.Fatal("admitted with only half a token refilled")
	}
	// The failed admission above consumed no token; 1.5ms refills past 1.
	if !b.admit(2 * sim.Millisecond) {
		t.Fatal("shed with a refilled token")
	}
}

func testConfig(shards int, sched string) Config {
	base := checkin.DefaultConfig()
	base.Strategy = checkin.StrategyCheckIn
	// Traffic spans ~40ms (TotalOps / RatePerSec); a 10ms cadence lands
	// several cuts inside it.
	base.CheckpointInterval = 10 * time.Millisecond
	return Config{
		Shards: shards,
		Base:   base,
		Arrival: workload.ArrivalConfig{
			Process:    "poisson",
			RatePerSec: 150_000,
			Tenants:    DefaultTenants(3, 2000),
		},
		TotalOps: 6_000,
		Workers:  8,
		Sched:    sched,
		Window:   20 * sim.Millisecond,
		Seed:     1,
	}
}

// TestShardedRunCompletes: a small run drains fully, conserves ops
// (offered = shed + done) and reports sane accounting.
func TestShardedRunCompletes(t *testing.T) {
	cfg := testConfig(3, SchedSync)
	cfg.AdmitRatePerSec = 120_000 // sheds some of the 150k offered
	cfg.AdmitBurst = 20           // default burst would absorb this short run
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != uint64(cfg.TotalOps) {
		t.Fatalf("offered %d, want %d", rep.Offered, cfg.TotalOps)
	}
	if rep.Shed == 0 {
		t.Fatal("admission control shed nothing at 80% of offered rate")
	}
	if rep.Done+rep.Shed != rep.Offered {
		t.Fatalf("op conservation: done %d + shed %d != offered %d", rep.Done, rep.Shed, rep.Offered)
	}
	if rep.Elapsed == 0 {
		t.Fatal("zero makespan")
	}
	var shardDone uint64
	for _, sr := range rep.ShardRows {
		shardDone += sr.Done
	}
	if shardDone != rep.Done {
		t.Fatalf("per-shard done %d != total %d", shardDone, rep.Done)
	}
	for _, tr := range rep.Tenants {
		if tr.Done > 0 && tr.P99 == 0 {
			t.Fatalf("tenant %s: %d ops but zero p99", tr.Name, tr.Done)
		}
	}
}

// TestShardedSchedulingPolicies: each policy produces checkpoints on every
// shard; staggered cuts fire at distinct phases (observable as shards'
// checkpoint counts staying within one of each other while their first cuts
// differ); the global policy still completes and drains.
func TestShardedSchedulingPolicies(t *testing.T) {
	for _, sched := range Scheds() {
		s, err := Open(testConfig(3, sched))
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		for _, sr := range rep.ShardRows {
			if sr.Checkpoints == 0 {
				t.Fatalf("%s: shard %d ran no checkpoints", sched, sr.ID)
			}
		}
		if rep.Done == 0 || rep.Done != rep.Offered-rep.Shed {
			t.Fatalf("%s: bad accounting %+v", sched, rep)
		}
	}
}

// TestShardedDeterminismMatrix: rendered output is byte-identical across
// shard-parallelism on/off and across GOMAXPROCS settings — the PR 6 bar,
// generalized to whole engine stacks. CI additionally runs this under
// -race -cpu 1,4.
func TestShardedDeterminismMatrix(t *testing.T) {
	render := func(parallel string, sched string) string {
		cfg := testConfig(3, sched)
		cfg.Parallel = parallel
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	for _, sched := range Scheds() {
		off := render("off", sched)
		on := render("on", sched)
		if off != on {
			t.Fatalf("%s: parallel on/off outputs differ:\n--- off ---\n%s\n--- on ---\n%s", sched, off, on)
		}
		prev := runtime.GOMAXPROCS(1)
		one := render("on", sched)
		runtime.GOMAXPROCS(prev)
		if one != off {
			t.Fatalf("%s: GOMAXPROCS=1 output differs:\n--- gomaxprocs=1 ---\n%s\n--- baseline ---\n%s", sched, one, off)
		}
	}
}

// TestShardedLSMDeterminism: LSM stacks shard through the same engine
// contract as journal stacks. Under every scheduling policy the rendered
// report is byte-identical with shard parallelism on or off and at
// GOMAXPROCS 1, every offered op is either shed or done, and every shard
// flushed. A small memtable makes compactions run inside the windows, so
// the drain must wait them out.
func TestShardedLSMDeterminism(t *testing.T) {
	render := func(parallel string, sched string) string {
		cfg := testConfig(3, sched)
		cfg.Base.Engine = "lsm"
		cfg.Base.MemtableEntries = 128
		cfg.Parallel = parallel
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Done+rep.Shed != rep.Offered || rep.Offered != uint64(cfg.TotalOps) {
			t.Fatalf("%s: op conservation: done %d + shed %d != offered %d (total %d)",
				sched, rep.Done, rep.Shed, rep.Offered, cfg.TotalOps)
		}
		for _, sr := range rep.ShardRows {
			if sr.Checkpoints == 0 {
				t.Fatalf("%s: LSM shard %d ran no flush epochs", sched, sr.ID)
			}
		}
		return rep.String()
	}
	for _, sched := range Scheds() {
		off := render("off", sched)
		if on := render("on", sched); on != off {
			t.Fatalf("%s: parallel on/off outputs differ:\n--- off ---\n%s\n--- on ---\n%s", sched, off, on)
		}
		prev := runtime.GOMAXPROCS(1)
		one := render("on", sched)
		runtime.GOMAXPROCS(prev)
		if one != off {
			t.Fatalf("%s: GOMAXPROCS=1 output differs:\n--- gomaxprocs=1 ---\n%s\n--- baseline ---\n%s", sched, one, off)
		}
	}
}

// TestShardedGlobalCutPausesService: under the global policy the write tail
// must reflect the dequeue stall — p99.9 at least as high as the sync
// policy's on the same traffic (the backlog the consistent cut builds).
func TestShardedGlobalCutPausesService(t *testing.T) {
	run := func(sched string) *Report {
		s, err := Open(testConfig(2, sched))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	syncRep := run(SchedSync)
	globalRep := run(SchedGlobal)
	var syncMax, globalMax sim.VTime
	for i := range syncRep.Tenants {
		if v := syncRep.Tenants[i].P999; v > syncMax {
			syncMax = v
		}
		if v := globalRep.Tenants[i].P999; v > globalMax {
			globalMax = v
		}
	}
	if globalMax < syncMax {
		t.Fatalf("global-consistent cut tail %v below sync %v — the stall had no cost?", globalMax, syncMax)
	}
}

// TestShardedSeedSensitivity: different arrival seeds produce different
// reports (the stream actually feeds the system), equal seeds reproduce
// byte-identically.
func TestShardedSeedSensitivity(t *testing.T) {
	render := func(seed int64) string {
		cfg := testConfig(2, SchedSync)
		cfg.Seed = seed
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a1, a2, b := render(1), render(1), render(2)
	if a1 != a2 {
		t.Fatal("same seed did not reproduce")
	}
	if a1 == b {
		t.Fatal("seeds 1 and 2 produced identical reports")
	}
}

// TestShardedConfigValidation exercises the rejection paths.
func TestShardedConfigValidation(t *testing.T) {
	good := testConfig(2, SchedSync)
	bad := []func(*Config){
		func(c *Config) { c.Sched = "roundrobin" },
		func(c *Config) { c.Parallel = "maybe" },
		func(c *Config) { c.TotalOps = -1 },
		func(c *Config) { c.Workers = -2 },
		func(c *Config) { c.AdmitRatePerSec = -5 },
		func(c *Config) { c.Arrival.Tenants = nil },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("mutation %d: Open accepted an invalid config", i)
		}
	}
}

// TestShardFingerprintSensitivity: the sharded config fingerprint moves with
// every knob that changes the simulation.
func TestShardFingerprintSensitivity(t *testing.T) {
	fp := func(mutate func(*Config)) uint64 {
		cfg := testConfig(2, SchedSync)
		mutate(&cfg)
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint()
	}
	base := fp(func(*Config) {})
	muts := map[string]func(*Config){
		"shards":  func(c *Config) { c.Shards = 3 },
		"sched":   func(c *Config) { c.Sched = SchedStaggered },
		"rate":    func(c *Config) { c.Arrival.RatePerSec *= 2 },
		"tenants": func(c *Config) { c.Arrival.Tenants = DefaultTenants(2, 2000) },
		"seed":    func(c *Config) { c.Seed = 9 },
		"admit":   func(c *Config) { c.AdmitRatePerSec = 50_000 },
		"strat":   func(c *Config) { c.Base.Strategy = checkin.StrategyBaseline },
	}
	for name, m := range muts {
		if fp(m) == base {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
	if fp(func(*Config) {}) != base {
		t.Error("fingerprint not stable across identical configs")
	}
}

// TestParseArrival covers the spec grammar both ways.
func TestParseArrival(t *testing.T) {
	good := map[string]func(workload.ArrivalConfig) bool{
		"poisson:200000": func(c workload.ArrivalConfig) bool {
			return c.Process == "poisson" && c.RatePerSec == 200000 && c.Flash == nil
		},
		"poisson:1000:flash": func(c workload.ArrivalConfig) bool {
			return c.Flash != nil && c.Flash.RateMult == 4
		},
		"diurnal:50000:0.6:200ms": func(c workload.ArrivalConfig) bool {
			return c.Process == "diurnal" && c.DiurnalAmp == 0.6 &&
				c.DiurnalPeriod == 200*sim.Millisecond
		},
		"diurnal:50000:0.3:2s:flash": func(c workload.ArrivalConfig) bool {
			return c.Flash != nil && c.DiurnalPeriod == 2*sim.Second
		},
	}
	for spec, check := range good {
		c, err := ParseArrival(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
		} else if !check(c) {
			t.Errorf("%s: parsed to %+v", spec, c)
		}
	}
	bad := []string{"", "poisson", "poisson:0", "poisson:-5", "poisson:1000:extra",
		"bursty:1000", "diurnal:1000", "diurnal:1000:1.5:2s", "diurnal:1000:0.5:nope",
		"diurnal:1000:0.5:-2s", "flash"}
	for _, spec := range bad {
		if _, err := ParseArrival(spec); err == nil {
			t.Errorf("%q: accepted", spec)
		}
	}
}

func BenchmarkShardedRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := testConfig(4, SchedStaggered)
		cfg.TotalOps = 20_000
		s, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleReport() {
	// Deterministic micro-run: 1 shard, tiny op count, admission off.
	cfg := testConfig(1, SchedSync)
	cfg.TotalOps = 100
	cfg.Workers = 4
	s, err := Open(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep, err := s.Run()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("offered=%d done=%d shards=%d\n", rep.Offered, rep.Done, rep.Shards)
	// Output: offered=100 done=100 shards=1
}
