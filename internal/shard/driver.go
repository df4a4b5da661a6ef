package shard

import (
	"fmt"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// shardRunner drives one engine+SSD stack as an event domain. Everything it
// touches — its DB's private sim.Engine, its queue, its histograms — is
// owned by this shard alone; the coordinator writes the staged arrival
// slice and cut schedule strictly before a window runs and reads the
// accounting strictly after, so a window's execution shares no mutable
// state across shards and parallel windows are race-free by construction.
type shardRunner struct {
	id   int
	db   *checkin.DB
	en   checkin.HostEngine
	eng  *sim.Engine
	base sim.VTime // domain clock at run start; arrivals are offsets from it

	// FIFO of admitted, not-yet-claimed ops. head indexes the next op; the
	// backing array recycles on a full drain and compacts whenever the
	// consumed prefix dominates, so memory is bounded by the peak backlog,
	// not the run length.
	queue []pendingOp
	head  int
	sem   *sim.Semaphore // one permit per queued op (plus close releases)

	paused  bool        // global-consistent cut: dequeue stalled
	resume  *sim.Future // completes when the pausing checkpoint finishes
	closing bool

	// arrival slice staged for the current window (keys already local)
	arr    []workload.Arrival
	arrIdx int

	tenants  []tenantAcct
	queued   uint64
	done     uint64
	qPeak    int
	lastDone sim.VTime // completion offset of the latest finished op

	loadWall time.Duration // snapshot-fork (or direct load) wall time
	runWall  time.Duration // cumulative wall time inside RunUntil windows
}

type pendingOp struct {
	at     sim.VTime // absolute arrival time on this shard's clock
	tenant int32
	op     workload.Op // Key is shard-local
}

// tenantAcct is one shard's streaming accounting for one tenant. Histograms
// are O(1) sketches; merging across shards in shard order at report time is
// the only cross-shard stats operation.
type tenantAcct struct {
	done     uint64
	readLat  stats.Histogram
	writeLat stats.Histogram
	allLat   stats.Histogram
}

func newShardRunner(id int, db *checkin.DB, tenants int, workers int) *shardRunner {
	s := &shardRunner{
		id:      id,
		db:      db,
		en:      db.Host(),
		eng:     db.Sim(),
		tenants: make([]tenantAcct, tenants),
	}
	s.base = s.eng.Now()
	s.sem = sim.NewSemaphore(s.eng, 0)
	s.startWorkers(workers)
	return s
}

// startWorkers spawns the long-lived service processes. A fixed worker pool
// (rather than one process per op) bounds the shard's concurrency toward
// its device — the front-end's max in-flight requests — and keeps the
// goroutine count independent of the op count, which is what lets a 10^7-op
// open-loop run complete in bounded memory.
func (s *shardRunner) startWorkers(n int) {
	for w := 0; w < n; w++ {
		s.eng.Go(fmt.Sprintf("shard%d-worker-%d", s.id, w), func(p *sim.Proc) {
			for {
				s.sem.Acquire(p)
				for s.paused {
					p.Wait(s.resume)
				}
				if s.head >= len(s.queue) {
					if s.closing {
						return
					}
					continue // close-time release raced a real op; harmless
				}
				po := s.queue[s.head]
				s.queue[s.head] = pendingOp{}
				s.head++
				if s.head == len(s.queue) {
					s.queue = s.queue[:0]
					s.head = 0
				} else if s.head >= 4096 && s.head*2 >= len(s.queue) {
					// A persistently backlogged shard may never fully drain;
					// sliding the live suffix down whenever the consumed
					// prefix dominates keeps the array O(backlog) instead of
					// O(ops since the last full drain). Amortized O(1) per op.
					n := copy(s.queue, s.queue[s.head:])
					s.queue = s.queue[:n]
					s.head = 0
				}
				s.exec(p, po)
			}
		})
	}
}

func (s *shardRunner) exec(p *sim.Proc, po pendingOp) {
	core.Exec(s.en, p, po.op)
	now := p.Now()
	// Open-loop latency: completion minus *arrival*, so queueing delay —
	// the thing overload and checkpoint stalls actually cost a client —
	// is part of every sample.
	lat := uint64(now - po.at)
	ta := &s.tenants[po.tenant]
	ta.done++
	ta.allLat.Record(lat)
	if po.op.Kind == workload.OpRead || po.op.Kind == workload.OpScan {
		ta.readLat.Record(lat)
	} else {
		ta.writeLat.Record(lat)
	}
	s.done++
	if off := now - s.base; off > s.lastDone {
		s.lastDone = off
	}
}

// stage installs the window's admitted arrivals (sorted by time, keys
// already local) and arms the pacer. Called by the coordinator between
// windows, never while the domain runs.
func (s *shardRunner) stage(arr []workload.Arrival) {
	s.arr = arr
	s.arrIdx = 0
	if len(arr) > 0 {
		s.eng.At(s.base+arr[0].At, s.pace)
	}
}

// pace is the single self-rescheduling arrival event: it enqueues every
// staged arrival whose time has come and re-arms itself at the next one.
// One event chain per window regardless of arrival count.
func (s *shardRunner) pace() {
	now := s.eng.Now()
	for s.arrIdx < len(s.arr) && s.base+s.arr[s.arrIdx].At <= now {
		a := s.arr[s.arrIdx]
		s.arrIdx++
		s.queue = append(s.queue, pendingOp{at: s.base + a.At, tenant: a.Tenant, op: a.Op})
		s.queued++
		if backlog := len(s.queue) - s.head; backlog > s.qPeak {
			s.qPeak = backlog
		}
		s.sem.Release()
	}
	if s.arrIdx < len(s.arr) {
		s.eng.At(s.base+s.arr[s.arrIdx].At, s.pace)
	}
}

// cut is one scheduled checkpoint trigger.
type cut struct {
	at    sim.VTime // absolute time on the shard's clock
	pause bool      // global-consistent cut: stall dequeue until it completes
}

// scheduleCuts registers the window's checkpoint triggers. A plain cut
// fires TriggerCheckpoint and lets service continue against the journal
// snapshot; a pausing cut additionally stalls op dequeue until the
// checkpoint completes, so the cut captures a globally consistent op
// frontier — arrivals keep queueing, and the backlog drains afterward,
// which is exactly the tail-latency cost the scheduling experiment
// measures.
func (s *shardRunner) scheduleCuts(cuts []cut) {
	for _, c := range cuts {
		c := c
		if !c.pause {
			s.eng.At(c.at, func() { s.en.TriggerCheckpoint() })
			continue
		}
		s.eng.At(c.at, func() {
			if !s.paused {
				s.paused = true
				s.resume = sim.NewFuture(s.eng)
			}
			res := s.resume
			// Overlapping cuts share one running checkpoint future, so this
			// callback can fire once per cut on the same completion; only the
			// first may complete the resume future (hence the paused check),
			// and a cut scheduled after a later re-pause must not complete
			// the newer future (hence the identity check).
			s.en.TriggerCheckpoint().OnComplete(func() {
				if s.paused && s.resume == res {
					s.paused = false
					res.Complete()
				}
			})
		})
	}
}

// run executes the domain up to deadline (absolute on the shard's clock),
// accumulating wall time for the imbalance report.
func (s *shardRunner) run(deadline sim.VTime) {
	start := time.Now()
	s.eng.RunUntil(deadline)
	s.runWall += time.Since(start)
}

// idle reports whether the shard has fully drained: no queued or in-flight
// ops and no background work (checkpoint, compaction) in progress — the
// closed-loop drain's condition.
func (s *shardRunner) idle() bool {
	return s.done == s.queued && !s.en.BackgroundBusy()
}

// close releases every worker so the pool exits once the queue is empty.
func (s *shardRunner) close(workers int) {
	s.closing = true
	for w := 0; w < workers; w++ {
		s.sem.Release()
	}
	s.run(s.eng.Now() + sim.Microsecond)
}
