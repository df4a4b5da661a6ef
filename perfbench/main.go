// Command perfbench is the repository benchmark. It runs one named workload
// against the simulated Check-In stack for a wall-clock budget, checks the
// results, and prints every metric by name and unit. The last line of its
// output is one JSON object: the end-to-end metrics of BENCHMARK.json, or
// with -trace 1 its per-layer metrics, gathered from a traced run that also
// writes a Chrome trace-event file.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench -workload ycsb-a -seed 1 -seconds 30 -trace 0
//
// Two clocks are reported. Simulated-time metrics come from the model and
// repeat exactly for a seed; sim_digest hashes all of them. Host metrics
// measure the simulator itself and are medians over the run's cycles, each
// of which sets up a fresh stack, warms it up, measures, and passes the
// correctness gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/shard"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// options is one run's input. main fills it from the command line; the
// self-tests build it directly, with a shrunken workload.
type options struct {
	w       workloadDef
	seed    int64
	seconds float64
	trace   bool
	con     *contract
	outDir  string // trace and profile files
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contract is the part of BENCHMARK.json the benchmark reports against.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

func main() {
	var name string
	var o options
	var traced int
	flag.StringVar(&name, "workload", "ycsb-a", "workload: ycsb-a | wo-gc-dftl | lsm-f | shard-open")
	flag.Int64Var(&o.seed, "seed", 1, "simulation seed (Config.Seed)")
	flag.Float64Var(&o.seconds, "seconds", 30, "wall-clock budget of the measured cycles")
	flag.IntVar(&traced, "trace", 0, "1: report per-layer metrics from a traced run and write a Chrome trace")
	flag.Parse()
	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s seed %d: %v\n", name, o.seed, err)
		os.Exit(code)
	}
	if traced != 0 && traced != 1 {
		fail(2, fmt.Errorf("-trace %d: want 0 or 1", traced))
	}
	o.trace = traced == 1
	o.outDir = filepath.Join(".bench_build", "perfbench")
	var err error
	if o.w, err = findWorkload(name); err != nil {
		fail(2, err)
	}
	if o.con, err = loadContract("BENCHMARK.json"); err != nil {
		fail(2, err)
	}

	res, err := run(o, os.Stdout)
	if err != nil {
		var gate *gateError
		if errors.As(err, &gate) {
			line, _ := json.Marshal(result{Correct: false, Attempted: gate.attempted, Failed: gate.failed,
				Metrics: map[string]metric{}})
			fmt.Println(string(line))
		}
		fail(1, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
}

// gateError is a correctness-gate failure, as opposed to a usage or set-up
// error; the run still reports how many operations it attempted.
type gateError struct {
	err               error
	attempted, failed uint64
}

func (e *gateError) Error() string { return "correctness gate: " + e.err.Error() }
func (e *gateError) Unwrap() error { return e.err }

// cycle is one set-up, warm-up, measured phase and gate.
type cycle struct {
	sim      *metricSet // simulated-time metrics; identical for a seed
	setup    time.Duration
	phases   map[string]time.Duration // layer-call wall times
	measure  time.Duration
	queries  uint64 // completed in the measured phase
	attempt  uint64
	failed   uint64 // refused: writes to a read-only device, shed arrivals
	events   uint64
	alloc    uint64 // bytes allocated during the measured phase
	heap     uint64 // live heap the stack adds, after runtime.GC at the cycle's end
	parallel float64
}

const (
	traceRing      = 1 << 15
	sampleInterval = 10 * sim.Millisecond
)

func (w workloadDef) cycle(seed int64, rec *recorder) (*cycle, error) {
	if w.shards > 0 {
		return w.shardCycle(seed, rec)
	}
	return w.closedCycle(seed, rec)
}

func (w workloadDef) closedCycle(seed int64, rec *recorder) (*cycle, error) {
	c := &cycle{phases: map[string]time.Duration{}}
	heap0 := liveHeap()
	cfg := w.config(seed)
	if rec != nil {
		cfg.TraceCapacity = traceRing
	}
	var db *checkin.DB
	var err error
	c.phases["open"] = rec.timed("checkin.Open", func() { db, err = checkin.Open(cfg) })
	if err != nil {
		return nil, err
	}
	if err := w.assertStack(db); err != nil {
		return nil, err
	}
	c.phases["load"] = rec.timed("checkin.Load", db.Load)
	warm := w.spec
	warm.TotalQueries = w.warmup
	c.phases["warmup"] = rec.timed("checkin.Run.warmup", func() { _, err = db.Run(warm) })
	if err != nil {
		return nil, err
	}
	c.setup = c.phases["open"] + c.phases["load"] + c.phases["warmup"]

	spec := w.spec
	spec.TotalQueries = w.queries
	if rec != nil {
		spec.SampleInterval = sampleInterval
	}
	runtime.GC() // collect the warm-up's garbage outside the measured window
	before := snapLayers(db)
	t0 := db.Sim().Now()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var m *checkin.Metrics
	c.measure = rec.timed("checkin.Run.measured", func() { m, err = db.Run(spec) })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	after := snapLayers(db)
	c.sim = closedSimMetrics(db, m, before, after)
	// A refused write still counts as a completed query in core.Metrics.
	c.queries, c.attempt, c.failed = m.Queries, m.Queries, m.RejectedWrites
	c.events = after.events - before.events
	c.alloc = ms1.TotalAlloc - ms0.TotalAlloc

	var rep *checkin.RecoveryReport
	var durable []int64
	var spor *ftl.SPORReport
	var invErr error
	c.phases["recovery"] = rec.timed("checkin.SimulateRecovery", func() {
		rep = db.SimulateRecovery()
		durable = db.DurableVersions()
	})
	c.phases["spor"] = rec.timed("checkin.SimulateSPOR", func() { spor = db.SimulateSPOR() })
	c.phases["invariants"] = rec.timed("ftl.CheckInvariants", func() { invErr = db.Device().FTL().CheckInvariants() })
	if err := checkRecovery(rep.Recovered, durable, spor.Mismatches, invErr); err != nil {
		return nil, &gateError{err: err, attempted: c.attempt, failed: c.failed}
	}
	if rec != nil {
		rec.simTrack(fmt.Sprintf("measured run, seed %d", seed), db.Trace().Events(), m.Timeline, t0)
	}
	c.heap = liveHeap() - heap0
	runtime.KeepAlive(db)
	return c, nil
}

func (w workloadDef) shardCycle(seed int64, rec *recorder) (*cycle, error) {
	c := &cycle{phases: map[string]time.Duration{}}
	heap0 := liveHeap()
	cfg := w.shardConfig(seed)
	var s *shard.ShardedDB
	var err error
	c.setup = rec.timed("shard.Open", func() { s, err = shard.Open(cfg) })
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var rep *shard.Report
	c.measure = rec.timed("shard.Run", func() { rep, err = s.Run() })
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if err := w.assertShards(rep); err != nil {
		return nil, err
	}
	if err := checkShardReport(rep); err != nil {
		return nil, &gateError{err: err, attempted: rep.Offered, failed: rep.Shed}
	}
	c.sim = shardSimMetrics(rep)
	c.queries, c.attempt, c.failed = rep.Done, rep.Offered, rep.Shed
	c.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	c.phases["open"] = c.setup
	c.phases["load"] = rep.LoadWall
	var runWall time.Duration
	for _, r := range rep.ShardRows {
		runWall += r.RunWall
	}
	c.parallel = ratio(float64(runWall), float64(rep.Wall))
	c.heap = liveHeap() - heap0
	runtime.KeepAlive(s)
	return c, nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// subRuns is the number of distinct simulations a run measures. Cycle i
// simulates Config.Seed subSeed(seed, i%subRuns), so the simulated-time
// metrics combine subRuns inputs drawn from the run's seed.
const subRuns = 5

func subSeed(seed int64, i int) int64 { return seed*subRuns + int64(i) + 1 }

// measure runs at least minCycles cycles, then more while the longest cycle
// so far still fits in what is left of the budget, so a run ends within it.
// A cycle that repeats an earlier cycle's sub-seed must reproduce its
// simulated-time metrics exactly.
func measure(w workloadDef, seed int64, budget time.Duration, minCycles int, rec *recorder) ([]*cycle, error) {
	start := time.Now()
	var cs []*cycle
	var longest time.Duration
	for len(cs) < minCycles || time.Since(start)+longest <= budget {
		i := len(cs)
		t := time.Now()
		c, err := rec.runCycle(w, subSeed(seed, i%subRuns), i)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t))
		if i >= subRuns && c.sim.digest() != cs[i-subRuns].sim.digest() {
			return nil, fmt.Errorf("cycle %d: sim_digest %016x differs from cycle %d's %016x on the same sub-seed",
				i, c.sim.digest(), i-subRuns, cs[i-subRuns].sim.digest())
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// runCycle wraps one cycle in a span, so the layer spans nest under it.
func (r *recorder) runCycle(w workloadDef, seed int64, i int) (*cycle, error) {
	var c *cycle
	var err error
	r.timed(fmt.Sprintf("perfbench.cycle%d", i), func() { c, err = w.cycle(seed, r) })
	return c, err
}

// simMetrics combines the first subRuns cycles, one per sub-seed: a
// closed-loop latency percentile is taken over the pooled histograms of all
// of them, every other metric is their median.
func simMetrics(cs []*cycle) *metricSet {
	cs = cs[:min(len(cs), subRuns)]
	s := newMetricSet()
	for _, n := range cs[0].sim.names {
		if hp, ok := cs[0].sim.hists[n]; ok {
			var h stats.Histogram
			for _, c := range cs {
				h.Merge(c.sim.hists[n].h)
			}
			s.pct(n, &h, hp.p)
			continue
		}
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = c.sim.vals[n].Value
		}
		s.set(n, cs[0].sim.vals[n].Unit, median(xs))
		if c, ok := cs[0].sim.count[n]; ok {
			s.count[n] = c
		}
	}
	return s
}

// hostMetrics are the wall-clock metrics of a set of cycles: medians.
func hostMetrics(cs []*cycle) *metricSet {
	s := newMetricSet()
	med := func(f func(c *cycle) float64) float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		return median(xs)
	}
	s.set("host_kqps", "kq/s", med(func(c *cycle) float64 { return float64(c.queries) / c.measure.Seconds() / 1e3 }))
	s.set("setup_s", "s", med(func(c *cycle) float64 { return c.setup.Seconds() }))
	s.set("alloc_b_per_query", "B", med(func(c *cycle) float64 { return ratio(float64(c.alloc), float64(c.queries)) }))
	s.set("heap_mb", "MB", med(func(c *cycle) float64 { return float64(c.heap) / 1e6 }))
	if cs[0].events > 0 {
		s.set("sim.ns_per_event", "ns", med(func(c *cycle) float64 {
			return ratio(float64(c.measure.Nanoseconds()), float64(c.events))
		}))
	}
	for _, p := range []string{"open", "load", "warmup", "recovery", "spor", "invariants"} {
		if _, ok := cs[0].phases[p]; ok {
			s.set("checkin."+p+"_s", "s", med(func(c *cycle) float64 { return c.phases[p].Seconds() }))
		}
	}
	if cs[0].parallel > 0 {
		s.set("shard.parallel_eff", "ratio", med(func(c *cycle) float64 { return c.parallel }))
	}
	return s
}

func totals(cs []*cycle) (attempted, failed uint64) {
	for _, c := range cs {
		attempted += c.attempt
		failed += c.failed
	}
	return
}

func run(o options, out io.Writer) (*result, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	w, con := o.w, o.con
	budget := time.Duration(o.seconds * float64(time.Second))
	if w.shards == 0 {
		// A closed loop is one sequential simulation. A second P only moves
		// its process handshakes between CPUs, so the run would time the
		// host's CPU wake-ups rather than the simulator.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	describe(out, w, o)

	if !o.trace {
		cs, err := measure(w, o.seed, budget, subRuns, nil)
		if err != nil {
			return nil, err
		}
		all := merge(simMetrics(cs), hostMetrics(cs))
		phases := "set-up, warm-up, measured phase and gate"
		if w.shards > 0 {
			phases = "set-up and one shard.Run, checked by the report gate"
		}
		fmt.Fprintf(out, "cycles        %d, each a fresh %s\n", len(cs), phases)
		report(out, all, cs)
		return emit(out, con.EndToEnd, all, cs, false)
	}

	// Traced run: one untraced cycle per sub-seed gives the per-layer
	// counters and the reference speed; traced cycles for the rest of the
	// budget, under a CPU profile, give the trace and the module shares.
	start := time.Now()
	plain, err := measure(w, o.seed, 0, subRuns, nil)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	rec := newRecorder()
	prof, err := os.Create(base + ".pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced, err := measure(w, o.seed, budget-time.Since(start), 2, rec)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	all := merge(simMetrics(plain), hostMetrics(plain))
	rec.timed("sim.switch_drive", func() { all.set("sim.switch_ns", "ns", repeat(func() float64 { return switchNS(200_000) })) })
	rec.timed("workload.zipf_drive", func() {
		z := workload.NewZipfian(50_000, workload.DefaultTheta)
		all.set("workload.zipf_ns_per_op", "ns", repeat(func() float64 { return drawNS(z, 1_000_000) }))
	})
	rec.timed("workload.uniform_drive", func() {
		all.set("workload.uniform_ns_per_op", "ns",
			repeat(func() float64 { return drawNS(workload.Uniform{Keys: 50_000}, 1_000_000) }))
	})
	shares, err := cpuShares(base + ".pprof")
	if err != nil {
		return nil, err
	}
	for _, m := range cpuModules {
		all.set("cpu."+m, "%", shares[m])
	}
	plainKQ := all.get("host_kqps")
	tracedKQ := hostMetrics(traced).get("host_kqps")
	all.set("trace.overhead_pct", "%", 100*(plainKQ-tracedKQ)/plainKQ)

	var changed []string
	for _, n := range plain[0].sim.names {
		if traced[0].sim.vals[n] != plain[0].sim.vals[n] {
			changed = append(changed, n)
		}
	}
	other := map[string]any{
		"workload": w.name, "seed": o.seed,
		"sim_digest":        fmt.Sprintf("%016x", simMetrics(plain).digest()),
		"traced_sim_digest": fmt.Sprintf("%016x", traced[0].sim.digest()),
		"cpu_share_pct":     shares,
		"host_kqps":         map[string]float64{"untraced": plainKQ, "traced": tracedKQ},
	}
	if err := rec.write(base+".trace.json", other); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "cycles        %d untraced, %d traced\n", len(plain), len(traced))
	report(out, all, plain)
	fmt.Fprintf(out, "cpu share     ")
	for _, m := range sortedKeys(shares) {
		fmt.Fprintf(out, " %s=%.1f%%", m, shares[m])
	}
	fmt.Fprintf(out, "\ntracing       %.1f kq/s traced vs %.1f kq/s untraced (overhead %.1f%%)\n",
		tracedKQ, plainKQ, all.get("trace.overhead_pct"))
	fmt.Fprintf(out, "traced model  sim_digest %016x; metrics the trace ring and timeline sampler changed: %v\n",
		traced[0].sim.digest(), changed)
	fmt.Fprintf(out, "trace file    %s.trace.json (Chrome trace events; CPU profile %s.pprof)\n", base, base)
	if w.shards > 0 {
		fmt.Fprintf(out, "sim track     none: the shard stacks, their trace rings and timelines are private to shard.ShardedDB\n")
	}
	return emit(out, con.PerLayer, all, plain, true)
}

// merge returns a new set holding every metric of the given sets.
func merge(sets ...*metricSet) *metricSet {
	all := newMetricSet()
	for _, s := range sets {
		for _, n := range s.names {
			all.set(n, s.vals[n].Unit, s.vals[n].Value)
		}
		for n, c := range s.count {
			all.count[n] = c
		}
	}
	return all
}

func describe(out io.Writer, w workloadDef, o options) {
	fmt.Fprintf(out, "workload      %s, seed %d, %.0f s budget, trace %v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "why           %s\n", w.why)
	if w.shards > 0 {
		fmt.Fprintf(out, "stack         %d shards, %s engine, %s map; open loop, Poisson %.0f ops/s over %d tenants, %d ops, %s checkpoints\n",
			w.shards, w.engine, w.ftlMap, w.rate, w.tenant, w.ops, w.sched)
		fmt.Fprintf(out, "generator lag 0 by construction: arrivals are scheduled in virtual time\n")
		return
	}
	fmt.Fprintf(out, "stack         1 stack, %s engine, %s map; closed loop, %d clients, %s, %s keys\n",
		w.engine, w.ftlMap, w.spec.Threads, workload.MixName(w.spec.Mix), map[bool]string{true: "zipfian", false: "uniform"}[w.spec.Zipfian])
	fmt.Fprintf(out, "phases        %d warm-up queries (discarded), %d measured queries\n", w.warmup, w.queries)
}

// report prints every computed metric, the digest and the failure share.
func report(out io.Writer, all *metricSet, cs []*cycle) {
	fmt.Fprintf(out, "sim_digest    %016x (simulated-time metrics over %d sub-seeds)\n", simMetrics(cs).digest(), subRuns)
	fmt.Fprintf(out, "host kq/s     ")
	for _, c := range cs {
		fmt.Fprintf(out, " %.1f", float64(c.queries)/c.measure.Seconds()/1e3)
	}
	fmt.Fprintln(out, " (per cycle)")
	for _, n := range all.names {
		v := all.vals[n]
		line := fmt.Sprintf("metric        %-32s %16.6g %s", n, v.Value, v.Unit)
		if c, ok := all.count[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(out, line)
	}
	attempted, failed := totals(cs)
	fmt.Fprintf(out, "failed_pct    %.4f %% (%d failed of %d attempted)\n", 100*ratio(float64(failed), float64(attempted)), failed, attempted)
}

// emit builds the result line from the contract's metric list. End-to-end
// metrics must all be computed; a per-layer metric the workload's stack
// does not expose is reported as 0 and listed as n/a.
func emit(out io.Writer, want []struct{ Name, Unit string }, all *metricSet, cs []*cycle, perLayer bool) (*result, error) {
	attempted, failed := totals(cs)
	res := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var na []string
	for _, m := range want {
		v, ok := all.vals[m.Name]
		switch {
		case !ok && !perLayer:
			return nil, fmt.Errorf("end-to-end metric %s not computed", m.Name)
		case !ok:
			v = metric{Unit: m.Unit}
			na = append(na, m.Name)
		case v.Unit != m.Unit:
			return nil, fmt.Errorf("metric %s: computed in %s, contract says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	if len(na) > 0 {
		fmt.Fprintf(out, "n/a           %s (not exposed by this stack; reported as 0)\n", strings.Join(na, " "))
	}
	return res, nil
}
