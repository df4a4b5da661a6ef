package core

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Host is the narrow contract through which the closed-loop driver, the
// shard workers and the cross-backend oracle reach a storage engine. The
// journal engine (this package) and the LSM engine (internal/lsm) each
// implement it; everything else about driving a run lives in Drive.
type Host interface {
	// Query operations, called from simulation processes.
	Get(p *sim.Proc, key int64)
	Update(p *sim.Proc, key int64, size int)
	Scan(p *sim.Proc, key int64, n int)
	Delete(p *sim.Proc, key int64)

	// TriggerCheckpoint starts a checkpoint cut (journal) or flush epoch
	// (LSM) unless one is already running; the future completes when the
	// epoch does.
	TriggerCheckpoint() *sim.Future
	CheckpointRunning() bool
	// CheckpointEpoch advances when a checkpoint starts and again when it
	// ends: a query that sees it move overlapped a checkpoint.
	CheckpointEpoch() uint64
	// BackgroundBusy reports engine-initiated device work a drain must
	// wait out: a running checkpoint, and under LSM a compaction.
	BackgroundBusy() bool
	// LiveEntries is what the adaptive live budget is compared against:
	// live JMT entries (journal) or distinct memtable keys (LSM).
	LiveEntries() int
}

// Exec applies one operation to h. A read-modify-write is a Get then an
// Update; an insert (a replayed load-phase op) writes like an update.
func Exec(h Host, p *sim.Proc, op workload.Op) {
	switch op.Kind {
	case workload.OpRead:
		h.Get(p, op.Key)
	case workload.OpUpdate, workload.OpInsert:
		h.Update(p, op.Key, op.Size)
	case workload.OpReadModifyWrite:
		h.Get(p, op.Key)
		h.Update(p, op.Key, op.Size)
	case workload.OpScan:
		h.Scan(p, op.Key, op.ScanLen)
	case workload.OpDelete:
		h.Delete(p, op.Key)
	}
}

// Stack is what Drive reads of the engine's surroundings: the kernel and
// device it runs on, its journaling counters, and the settings that shape
// the key stream and the checkpoint schedule.
type Stack struct {
	Sim                *sim.Engine
	Dev                *ssd.Device
	Journal            func() JournalStats
	Keys               int64
	Sizer              workload.Sizer
	RNG                *sim.RNG
	CheckpointInterval sim.VTime
	AdaptiveLiveBudget int
}

// RunSpec describes one measured workload phase.
type RunSpec struct {
	Threads      int
	TotalQueries int64
	Mix          workload.Mix
	// Zipfian selects the key distribution (θ = 0.99) vs uniform.
	Zipfian bool
	// Latest selects YCSB's latest distribution (requests skew toward
	// recently updated keys; pair with WorkloadD). Overrides Zipfian.
	Latest bool
	// DisableCheckpoints turns the periodic scheduler off (for baselines
	// of the motivation study).
	DisableCheckpoints bool

	// SampleInterval enables timeline sampling at the given period
	// (windowed throughput, checkpoint activity, die backlog, free
	// blocks). Zero disables sampling.
	SampleInterval sim.VTime

	// Trace, when non-nil, replays a recorded operation stream instead of
	// generating operations: every run sees byte-identical inputs, the
	// strictest way to compare configurations. TotalQueries caps at the
	// trace length; Mix and Zipfian are ignored.
	Trace *workload.Trace
}

// Validate reports a descriptive error for unusable specs.
func (rs RunSpec) Validate() error {
	if rs.Threads < 1 {
		return fmt.Errorf("core: Threads %d must be >= 1", rs.Threads)
	}
	if rs.TotalQueries < 1 {
		return fmt.Errorf("core: TotalQueries %d must be >= 1", rs.TotalQueries)
	}
	if rs.Trace != nil {
		return nil // mix is ignored under replay
	}
	return rs.Mix.Validate()
}

// Drive executes spec to completion against h, the one closed-loop driver
// every engine runs under: client processes, trace replay, the periodic
// checkpoint tick, the adaptive live-budget poll, the timeline sampler, the
// metrics window and the drain. m must be the collector the engine records
// its checkpoints into.
func Drive(h Host, st Stack, m *Metrics, spec RunSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	eng := st.Sim
	m.beginWindow(st.Dev, st.Journal(), eng.Now())

	var dist workload.Distribution
	var latest *workload.Latest
	switch {
	case spec.Latest:
		latest = workload.NewLatest(st.Keys, 1024)
		dist = latest
	case spec.Zipfian:
		dist = workload.NewZipfian(st.Keys, workload.DefaultTheta)
	default:
		dist = workload.Uniform{Keys: st.Keys}
	}

	// Under trace replay all clients pull from one shared replayer — the
	// single-worker simulation makes this race-free and deterministic.
	var replay *workload.Replayer
	if spec.Trace != nil {
		replay = workload.NewReplayer(spec.Trace)
		if n := int64(len(spec.Trace.Ops)); spec.TotalQueries > n {
			spec.TotalQueries = n
		}
	}

	remaining := spec.TotalQueries
	clientsLeft := spec.Threads
	runDone := false
	var endTime sim.VTime

	for t := 0; t < spec.Threads; t++ {
		mix := spec.Mix
		if replay != nil {
			mix = workload.WorkloadA // unused under replay, must validate
		}
		gen, err := workload.NewGenerator(dist, st.Sizer, mix,
			st.RNG.Split(fmt.Sprintf("client-%d", t)))
		if err != nil {
			return err
		}
		eng.Go(fmt.Sprintf("client-%d", t), func(p *sim.Proc) {
			for remaining > 0 {
				remaining--
				var op workload.Op
				if replay != nil {
					op = replay.Next()
				} else {
					op = gen.Next()
				}
				start := p.Now()
				epoch0 := h.CheckpointEpoch()
				Exec(h, p, op)
				if latest != nil && op.Kind == workload.OpUpdate {
					latest.Note(op.Key)
				}
				during := h.CheckpointRunning() || h.CheckpointEpoch() != epoch0
				m.noteQuery(op, p.Now()-start, during)
			}
			clientsLeft--
			if clientsLeft == 0 {
				endTime = p.Now()
				runDone = true
			}
		})
	}

	// timeline sampler
	if spec.SampleInterval > 0 {
		m.Timeline = stats.NewTimeline("kqps", "ckpt_active", "die_backlog_us", "free_blocks")
		lastQueries := uint64(0)
		start := eng.Now()
		var sample func()
		sample = func() {
			if runDone {
				return
			}
			now := eng.Now()
			window := spec.SampleInterval.Seconds()
			qps := float64(m.Queries-lastQueries) / window
			lastQueries = m.Queries
			active := 0.0
			if h.CheckpointRunning() {
				active = 1
			}
			backlog := st.Dev.FTL().Array().MaxBacklog(now).Micros()
			m.Timeline.Sample(uint64(now-start), qps/1e3, active, backlog,
				float64(st.Dev.FTL().FreeBlocks()))
			eng.Schedule(spec.SampleInterval, sample)
		}
		eng.Schedule(spec.SampleInterval, sample)
	}

	// periodic checkpoint scheduler (event-based: no leaked process)
	if !spec.DisableCheckpoints {
		var tick func()
		tick = func() {
			if runDone {
				return
			}
			if !h.CheckpointRunning() {
				h.TriggerCheckpoint()
			}
			eng.Schedule(st.CheckpointInterval, tick)
		}
		eng.Schedule(st.CheckpointInterval, tick)

		// bounded-work policy: poll the live-entry count at a fine grain
		// and checkpoint early whenever the budget is reached
		if st.AdaptiveLiveBudget > 0 {
			period := st.CheckpointInterval / 16
			if period == 0 || period > 10*sim.Millisecond {
				period = 10 * sim.Millisecond
			}
			var poll func()
			poll = func() {
				if runDone {
					return
				}
				if !h.CheckpointRunning() && h.LiveEntries() >= st.AdaptiveLiveBudget {
					h.TriggerCheckpoint()
				}
				eng.Schedule(period, poll)
			}
			eng.Schedule(period, poll)
		}
	}

	for !runDone {
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	}
	// drain background work and any straggling processes
	for guard := 0; (h.BackgroundBusy() || eng.LiveProcs() > 0) && guard < 1_000_000; guard++ {
		eng.RunUntil(eng.Now() + 10*sim.Millisecond)
	}
	m.endWindow(st.Dev, st.Journal(), endTime)
	return nil
}
