package core

import (
	"fmt"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// newTestEngine wires a small engine for a strategy.
func newTestEngine(t *testing.T, s Strategy, mut func(*Config)) (*sim.Engine, *Engine) {
	t.Helper()
	e, dev := newStack(t, s.DefaultMappingUnit())
	cfg := DefaultConfig()
	cfg.Strategy = s
	cfg.Keys = 2000
	cfg.Sizer = workload.FixedSizer{Size: 512}
	cfg.JournalHalfBytes = 4 << 20
	cfg.CheckpointInterval = 50 * sim.Millisecond
	if mut != nil {
		mut(&cfg)
	}
	en, err := NewEngine(e, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, en
}

func TestEngineRejectsBadConfig(t *testing.T) {
	e, dev := newStack(t, 512)
	cfg := DefaultConfig()
	cfg.Keys = 0
	if _, err := NewEngine(e, dev, cfg); err == nil {
		t.Error("bad config accepted")
	}
	// Layout too large for the device.
	cfg = DefaultConfig()
	cfg.Keys = 100_000_000
	if _, err := NewEngine(e, dev, cfg); err == nil {
		t.Error("oversized layout accepted")
	}
}

func TestUpdateThenGetUsesJournal(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		en.Update(p, 7, 512)
		en.Get(p, 7)
	})
	if en.version[7] != 2 || en.durable[7] != 2 {
		t.Errorf("versions = %d/%d, want 2/2", en.version[7], en.durable[7])
	}
	if en.jr.JMT().Latest(7) == nil {
		t.Error("journal has no entry for the updated key")
	}
}

func TestCheckpointAppliesVersions(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			e, en := newTestEngine(t, s, nil)
			en.Load()
			runProc(e, func(p *sim.Proc) {
				for i := int64(0); i < 50; i++ {
					en.Update(p, i, 512)
				}
				en.Update(p, 3, 512) // second version for key 3
				fut := en.TriggerCheckpoint()
				p.Wait(fut)
			})
			if en.ckptRunning {
				t.Fatal("checkpoint still running")
			}
			if en.ckpted[3] != 3 {
				t.Errorf("ckpted[3] = %d, want 3 (load 1 + 2 updates)", en.ckpted[3])
			}
			if en.ckpted[10] != 2 {
				t.Errorf("ckpted[10] = %d, want 2", en.ckpted[10])
			}
			if en.ckpted[1999] != 1 {
				t.Errorf("untouched key checkpointed to %d", en.ckpted[1999])
			}
			// JMT cleared into the new half.
			if en.jr.JMT().Len() != 0 {
				t.Error("active JMT not empty after checkpoint")
			}
			if en.Metrics().Checkpoints() != 0 {
				// metrics are reset by Run; TriggerCheckpoint records on
				// the current collector
				_ = en
			}
		})
	}
}

func TestCheckpointByStrategyFlashBehavior(t *testing.T) {
	// The defining asymmetry: copy-family strategies program checkpoint
	// pages; Check-In (aligned remap) barely does.
	programs := map[Strategy]uint64{}
	for _, s := range []Strategy{StrategyBaseline, StrategyISCB, StrategyCheckIn} {
		e, en := newTestEngine(t, s, nil)
		en.Load()
		pre := en.dev.FTL().Stats().ProgramsByTag[3-3] // placate linter; recomputed below
		_ = pre
		preCkpt := en.dev.FTL().Stats()
		runProc(e, func(p *sim.Proc) {
			for i := int64(0); i < 200; i++ {
				en.Update(p, i, 512)
			}
			p.Wait(en.TriggerCheckpoint())
		})
		post := en.dev.FTL().Stats()
		programs[s] = post.RedundantWrites() - preCkpt.RedundantWrites()
	}
	if programs[StrategyCheckIn] >= programs[StrategyBaseline]/4 {
		t.Errorf("Check-In redundant writes %d not ≪ baseline %d",
			programs[StrategyCheckIn], programs[StrategyBaseline])
	}
	if programs[StrategyISCB] == 0 {
		t.Error("ISC-B checkpoint did no device copies")
	}
}

func TestCheckInRemapSharing(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			en.Update(p, i, 512)
		}
		p.Wait(en.TriggerCheckpoint())
	})
	rt := en.RemapTotals()
	if rt.Remapped == 0 {
		t.Fatalf("no pure remaps recorded: %+v", rt)
	}
	if rt.RMWs > rt.Remapped/10 {
		t.Errorf("aligned 512B records should remap purely: %+v", rt)
	}
}

func TestISCCUnalignedRemapRMWs(t *testing.T) {
	e, en := newTestEngine(t, StrategyISCC, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		for i := int64(0); i < 100; i++ {
			en.Update(p, i, 512)
		}
		p.Wait(en.TriggerCheckpoint())
	})
	rt := en.RemapTotals()
	if rt.RMWs == 0 {
		t.Fatalf("ISC-C with header-offset logs should RMW: %+v", rt)
	}
}

func TestRunWorkloadBasics(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	_ = e
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 5000, Mix: workload.WorkloadA, Zipfian: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 5000 {
		t.Errorf("Queries = %d", m.Queries)
	}
	if m.ReadQueries == 0 || m.WriteQueries == 0 {
		t.Error("workload A must mix reads and writes")
	}
	rf := float64(m.ReadQueries) / float64(m.Queries)
	if rf < 0.45 || rf > 0.55 {
		t.Errorf("read fraction %.3f, want ~0.5", rf)
	}
	if m.Elapsed == 0 || m.ThroughputQPS() == 0 {
		t.Error("no elapsed time / throughput")
	}
	if m.Checkpoints() == 0 {
		t.Error("no checkpoints at 50ms interval")
	}
	if m.WriteQueryPayload == 0 {
		t.Error("write payload not accounted")
	}
	if m.AllLat.Count() != m.Queries {
		t.Errorf("latency samples %d != queries %d", m.AllLat.Count(), m.Queries)
	}
	if s := m.Summary(); len(s) < 100 {
		t.Errorf("Summary suspiciously short: %q", s)
	}
}

func TestRunRejectsBadSpec(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	if _, err := en.Run(RunSpec{Threads: 0, TotalQueries: 10, Mix: workload.WorkloadA}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestWorkloadFDoesRMW(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{Threads: 2, TotalQueries: 2000, Mix: workload.WorkloadF, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	// RMW counts as a write query; roughly half the total.
	wf := float64(m.WriteQueries) / float64(m.Queries)
	if wf < 0.42 || wf > 0.58 {
		t.Errorf("write (rmw) fraction %.3f, want ~0.5", wf)
	}
}

func TestDeterministicRuns(t *testing.T) {
	results := make([]string, 2)
	for i := range results {
		_, en := newTestEngine(t, StrategyCheckIn, nil)
		en.Load()
		m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 3000, Mix: workload.WorkloadA, Zipfian: true})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = fmt.Sprintf("%d %d %d %v %d %d",
			m.Queries, m.ReadQueries, m.WriteQueryPayload, m.Elapsed,
			m.FlashPrograms(), m.Checkpoints())
	}
	if results[0] != results[1] {
		t.Errorf("identical configs diverged:\n%s\n%s", results[0], results[1])
	}
}

func TestLockDuringCheckpointStallsQueries(t *testing.T) {
	_, en := newTestEngine(t, StrategyBaseline, func(c *Config) {
		c.LockDuringCheckpoint = true
	})
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadWO, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints() == 0 {
		t.Fatal("no checkpoints happened")
	}
	// With admission locked, the max write latency must cover at least
	// one checkpoint duration.
	maxCkpt := m.MaxCheckpointTime()
	if sim.VTime(m.WriteLat.Max()) < maxCkpt/2 {
		t.Errorf("max write latency %v does not reflect lock over checkpoint %v",
			sim.VTime(m.WriteLat.Max()), maxCkpt)
	}
}

func TestRecoveryMatchesDurableVersions(t *testing.T) {
	for _, s := range Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			_, en := newTestEngine(t, s, nil)
			en.Load()
			if _, err := en.Run(RunSpec{Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadA, Zipfian: true}); err != nil {
				t.Fatal(err)
			}
			rep := en.SimulateRecovery()
			durable := en.DurableVersions()
			for k := range durable {
				if rep.Recovered[k] != durable[k] {
					t.Fatalf("key %d: recovered v%d, durable v%d",
						k, rep.Recovered[k], durable[k])
				}
			}
			if rep.FromCheckpoint == 0 {
				t.Error("recovery restored nothing from the checkpoint")
			}
		})
	}
}

func TestRecoveryMidCheckpoint(t *testing.T) {
	// Crash while a checkpoint is running: the snapshot half's logs are
	// still on flash, so recovery must see them.
	e, en := newTestEngine(t, StrategyBaseline, nil)
	en.Load()
	triggered := false
	runProc(e, func(p *sim.Proc) {
		for i := int64(0); i < 300; i++ {
			en.Update(p, i%50, 512)
		}
		en.TriggerCheckpoint()
		triggered = true
		// crash "now": do not wait for the checkpoint
	})
	if !triggered {
		t.Fatal("setup failed")
	}
	rep := en.SimulateRecovery()
	durable := en.DurableVersions()
	for k := 0; k < 50; k++ {
		if rep.Recovered[k] < durable[k] {
			t.Fatalf("key %d: recovered v%d < durable v%d", k, rep.Recovered[k], durable[k])
		}
	}
}

func TestUncommittedUpdatesNotRecovered(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	// Append without driving the engine: logs buffered, not committed.
	done := false
	e.Go("writer", func(p *sim.Proc) {
		en.version[9]++
		en.jr.Append(9, en.version[9], 512)
		done = true
	})
	for !done {
		e.RunUntil(e.Now() + sim.Microsecond)
	}
	rep := en.SimulateRecovery()
	if rep.Recovered[9] != 1 {
		t.Errorf("uncommitted update recovered: v%d", rep.Recovered[9])
	}
	if en.InMemoryVersions()[9] != 2 {
		t.Errorf("in-memory version = %d, want 2", en.InMemoryVersions()[9])
	}
}

func TestJournalBackpressureTriggersCheckpoint(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
		c.JournalHalfBytes = 1 << 16 // 64 KB: fills fast
		c.CheckpointInterval = 10 * sim.Second
	})
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 3000, Mix: workload.WorkloadWO, Zipfian: false, DisableCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	// 3000 × ~512B ≫ 64 KB half: the soft/full triggers must have fired.
	if m.Checkpoints() == 0 {
		t.Error("journal pressure never triggered a checkpoint")
	}
}

func TestDisableCheckpoints(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
		c.CheckpointInterval = 5 * sim.Millisecond
	})
	en.Load()
	m, err := en.Run(RunSpec{Threads: 2, TotalQueries: 500, Mix: workload.WorkloadA, Zipfian: false, DisableCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Checkpoints() != 0 {
		t.Errorf("checkpoints ran despite DisableCheckpoints: %d", m.Checkpoints())
	}
}

func TestMeanHelpers(t *testing.T) {
	m := NewMetrics()
	if m.MeanCheckpointTime() != 0 || m.MeanLiveRatio() != 0 {
		t.Error("empty metrics means should be 0")
	}
	m.noteCheckpoint(10 * sim.Millisecond)
	m.noteCheckpoint(30 * sim.Millisecond)
	if m.MeanCheckpointTime() != 20*sim.Millisecond {
		t.Errorf("MeanCheckpointTime = %v", m.MeanCheckpointTime())
	}
	m.noteLiveRatio(0.4)
	m.noteLiveRatio(0.6)
	if r := m.MeanLiveRatio(); r < 0.499 || r > 0.501 {
		t.Errorf("MeanLiveRatio = %v", r)
	}
	if m.MaxCheckpointTime() != 30*sim.Millisecond {
		t.Errorf("MaxCheckpointTime = %v", m.MaxCheckpointTime())
	}
}

func TestMetricsStreamingNoAllocs(t *testing.T) {
	// Checkpoint and live-ratio accounting is O(1): arbitrarily long runs
	// must not grow the metrics. (These used to append to unbounded slices.)
	m := NewMetrics()
	if a := testing.AllocsPerRun(200, func() {
		m.noteCheckpoint(3 * sim.Millisecond)
		m.noteLiveRatio(0.25)
	}); a != 0 {
		t.Errorf("noteCheckpoint/noteLiveRatio allocate %v per call, want 0", a)
	}
}

func TestTimelineBoundedOnLongRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long sampled run in -short mode")
	}
	// A sampling interval far below the run length overflows the timeline
	// cap many times over; retained rows must stay bounded while still
	// spanning the whole run.
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{
		Threads: 4, TotalQueries: 10_000, Mix: workload.WorkloadA, Zipfian: true,
		SampleInterval: 2 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := m.Timeline.Len()
	if n > stats.DefaultTimelineCap {
		t.Errorf("timeline rows = %d exceed cap %d", n, stats.DefaultTimelineCap)
	}
	if n < stats.DefaultTimelineCap/2 {
		t.Errorf("timeline rows = %d, want saturation (>= %d) at this sampling rate",
			n, stats.DefaultTimelineCap/2)
	}
	last, _ := m.Timeline.At(n - 1)
	if sim.VTime(last) < m.Elapsed/2 {
		t.Errorf("timeline ends at %v, run elapsed %v", sim.VTime(last), m.Elapsed)
	}
}

func TestAdaptiveLiveBudgetBoundsCheckpointWork(t *testing.T) {
	run := func(budget int) *Metrics {
		_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
			c.CheckpointInterval = 10 * sim.Second // periodic trigger ~never fires
			c.AdaptiveLiveBudget = budget
		})
		en.Load()
		m, err := en.Run(RunSpec{Threads: 8, TotalQueries: 8000, Mix: workload.WorkloadWO, Zipfian: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fixed := run(0)
	adaptive := run(500)
	if adaptive.Checkpoints() <= fixed.Checkpoints() {
		t.Errorf("adaptive policy did not add checkpoints: %d vs %d",
			adaptive.Checkpoints(), fixed.Checkpoints())
	}
	// Bounded work: even the longest adaptive checkpoint stays small.
	if d := adaptive.MaxCheckpointTime(); d > 100*sim.Millisecond {
		t.Errorf("adaptive checkpoint took %v, budget not bounding work", d)
	}
}

func TestTimelineSampling(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{
		Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadA, Zipfian: true,
		SampleInterval: 5 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Timeline == nil || m.Timeline.Len() == 0 {
		t.Fatal("timeline not sampled")
	}
	s, err := m.Timeline.Series("kqps")
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, y := range s.Y {
		sum += y
	}
	if sum <= 0 {
		t.Error("timeline recorded no throughput")
	}
}

func TestTraceReplayIdenticalAcrossStrategies(t *testing.T) {
	// Record one op stream, replay it against two configurations: both
	// must execute exactly the same queries.
	gen, err := workload.NewGenerator(workload.Uniform{Keys: 2000},
		workload.FixedSizer{Size: 512}, workload.WorkloadA, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.RecordTrace(gen, 3000)

	var payloads [2]uint64
	for i, s := range []Strategy{StrategyBaseline, StrategyCheckIn} {
		_, en := newTestEngine(t, s, nil)
		en.Load()
		m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 99999, Trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if m.Queries != 3000 {
			t.Fatalf("%v replayed %d queries, want 3000", s, m.Queries)
		}
		payloads[i] = m.WriteQueryPayload
	}
	if payloads[0] != payloads[1] {
		t.Errorf("replayed write payloads differ: %d vs %d", payloads[0], payloads[1])
	}
}

func TestHostCacheServesHotReads(t *testing.T) {
	run := func(entries int) (*Metrics, sim.VTime) {
		_, en := newTestEngine(t, StrategyCheckIn, func(c *Config) {
			c.HostCacheEntries = entries
		})
		en.Load()
		m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 6000, Mix: workload.WorkloadA, Zipfian: true})
		if err != nil {
			t.Fatal(err)
		}
		return m, sim.VTime(m.ReadLat.Mean())
	}
	cold, coldLat := run(0)
	if cold.HostCacheHits != 0 {
		t.Error("hits recorded with cache disabled")
	}
	warm, warmLat := run(1000) // half the key space: zipfian hot set fits
	if warm.HostCacheHits == 0 {
		t.Fatal("no host cache hits under zipfian traffic")
	}
	if warmLat >= coldLat {
		t.Errorf("host cache did not reduce read latency: %v vs %v", warmLat, coldLat)
	}
}

func TestKeyLRUSemantics(t *testing.T) {
	c := newKeyLRU(2)
	c.insert(1)
	c.insert(2)
	if !c.touch(1) {
		t.Fatal("1 missing")
	}
	c.insert(3) // evicts 2 (1 was refreshed)
	if c.touch(2) {
		t.Error("2 should have been evicted")
	}
	if !c.touch(1) || !c.touch(3) {
		t.Error("1 and 3 should be resident")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}
	c.insert(3) // refresh, no growth
	if c.len() != 2 {
		t.Errorf("len after refresh = %d", c.len())
	}
}

func TestScanWorkloadE(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	preReads := en.dev.FTL().Array().Stats().Reads
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 1500, Mix: workload.WorkloadE, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	// Scans count as read queries (~95%).
	rf := float64(m.ReadQueries) / float64(m.Queries)
	if rf < 0.9 {
		t.Errorf("scan fraction %.2f, want ~0.95", rf)
	}
	if en.dev.FTL().Array().Stats().Reads == preReads {
		t.Error("scans issued no flash reads")
	}
	// A 50-record scan moves ~25 KB over the link even when fully cached:
	// its latency must comfortably exceed the host-issue overhead alone.
	if m.ReadLat.Mean() < 20_000 { // > 20µs
		t.Errorf("scan mean latency %.0fns implausibly low", m.ReadLat.Mean())
	}
}

func TestScanClampsAtKeySpaceEnd(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		en.Scan(p, en.cfg.Keys-3, 50)  // clamped to 3 records
		en.Scan(p, en.cfg.Keys+10, 10) // start clamped to last key
		en.Scan(p, 0, 0)               // n clamped to 1
	})
}

func TestDeleteJournalsTombstone(t *testing.T) {
	e, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	runProc(e, func(p *sim.Proc) {
		en.Delete(p, 42)
	})
	if !en.deleted[42] {
		t.Error("deleted flag not set")
	}
	if en.version[42] != 2 || en.durable[42] != 2 {
		t.Errorf("tombstone version = %d/%d, want 2/2", en.version[42], en.durable[42])
	}
	e2 := en.jr.JMT().Latest(42)
	if e2 == nil || e2.payload != tombstoneBytes {
		t.Fatalf("tombstone journal entry wrong: %+v", e2)
	}
	// Tombstones checkpoint and recover like any update.
	runProc(e, func(p *sim.Proc) {
		p.Wait(en.TriggerCheckpoint())
	})
	rep := en.SimulateRecovery()
	if rep.Recovered[42] != 2 {
		t.Errorf("tombstone not recovered: v%d", rep.Recovered[42])
	}
}

func TestDeleteMixInWorkload(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	mix := workload.Mix{ReadPct: 50, UpdatePct: 40, DeletePct: 10}
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 2000, Mix: mix, Zipfian: false})
	if err != nil {
		t.Fatal(err)
	}
	wf := float64(m.WriteQueries) / float64(m.Queries)
	if wf < 0.45 || wf > 0.55 {
		t.Errorf("write (update+delete) fraction %.2f, want ~0.5", wf)
	}
}

func TestLatestDistributionWorkloadD(t *testing.T) {
	_, en := newTestEngine(t, StrategyCheckIn, nil)
	en.Load()
	m, err := en.Run(RunSpec{Threads: 4, TotalQueries: 4000, Mix: workload.WorkloadD, Latest: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Queries != 4000 {
		t.Errorf("Queries = %d", m.Queries)
	}
	// 95% reads of recently updated keys: the journal read path dominates.
	rf := float64(m.ReadQueries) / float64(m.Queries)
	if rf < 0.9 {
		t.Errorf("read fraction %.2f, want ~0.95", rf)
	}
}
