package workload

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Additional YCSB mixes beyond the paper's three. The paper evaluates on
// the write-heavy A/F/WO set; these complete the standard suite so
// downstream users can study read-heavy regimes too.
var (
	// WorkloadB is YCSB-B: 95 % reads, 5 % updates.
	WorkloadB = Mix{ReadPct: 95, UpdatePct: 5}
	// WorkloadC is YCSB-C: read-only.
	WorkloadC = Mix{ReadPct: 100}
	// WorkloadD is YCSB-D's mix: 95 % reads, 5 % inserts modeled as
	// updates of recently touched keys (pair with NewLatest).
	WorkloadD = Mix{ReadPct: 95, UpdatePct: 5}
	// WorkloadE is YCSB-E: 95 % short range scans, 5 % updates.
	WorkloadE = Mix{ScanPct: 95, UpdatePct: 5, ScanLen: 50}
)

// Latest is YCSB's "latest" distribution: requests skew toward the most
// recently updated keys. It wraps a Zipfian over recency ranks — rank 0 is
// the newest key. Callers feed updates back via Note so the recency order
// tracks the workload.
type Latest struct {
	zipf   *Zipfian
	recent []int64 // ring of recently written keys, newest first
	size   int
	keys   int64
}

// NewLatest builds a latest distribution over n keys remembering the last
// window updates (window <= 0 selects a default of 1024).
func NewLatest(n int64, window int) *Latest {
	if n < 1 {
		panic("workload: latest distribution over empty key space")
	}
	if window <= 0 {
		window = 1024
	}
	if int64(window) > n {
		window = int(n)
	}
	l := &Latest{
		zipf: NewZipfian(int64(window), DefaultTheta),
		size: window,
		keys: n,
	}
	// Seed recency with the tail of the key space so early draws are valid.
	for i := 0; i < window; i++ {
		l.recent = append(l.recent, n-1-int64(i))
	}
	return l
}

// Note records that key was just written (it becomes the most recent).
func (l *Latest) Note(key int64) {
	l.recent = append([]int64{key}, l.recent[:l.size-1]...)
}

// Next draws a key skewed toward recent writes.
func (l *Latest) Next(rng *sim.RNG) int64 {
	rank := l.zipf.rank(rng)
	if rank >= int64(len(l.recent)) {
		rank = int64(len(l.recent)) - 1
	}
	return l.recent[rank]
}

// Name returns "latest".
func (l *Latest) Name() string { return "latest" }

// Trace is a recorded operation stream: generate once, replay against any
// configuration for strictly identical inputs across systems under test.
type Trace struct {
	Ops []Op
}

// RecordTrace captures n operations from a generator.
func RecordTrace(g *Generator, n int) *Trace {
	t := &Trace{Ops: make([]Op, n)}
	for i := range t.Ops {
		t.Ops[i] = g.Next()
	}
	return t
}

// Replayer walks a trace, optionally looping.
type Replayer struct {
	trace *Trace
	pos   int
	Loop  bool
}

// NewReplayer starts a replay at the beginning of the trace.
func NewReplayer(t *Trace) *Replayer {
	if len(t.Ops) == 0 {
		panic("workload: empty trace")
	}
	return &Replayer{trace: t}
}

// Next returns the next recorded operation. When the trace is exhausted it
// either wraps (Loop) or keeps returning the final operation.
func (r *Replayer) Next() Op {
	if r.pos >= len(r.trace.Ops) {
		if r.Loop {
			r.pos = 0
		} else {
			return r.trace.Ops[len(r.trace.Ops)-1]
		}
	}
	op := r.trace.Ops[r.pos]
	r.pos++
	return op
}

// Remaining reports how many unread operations remain (0 when exhausted
// and not looping).
func (r *Replayer) Remaining() int {
	if r.pos >= len(r.trace.Ops) {
		return 0
	}
	return len(r.trace.Ops) - r.pos
}

// Stats summarizes a trace's composition.
func (t *Trace) Stats() string {
	var reads, updates, rmws, inserts int
	var bytes int64
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
		case OpReadModifyWrite:
			rmws++
		case OpInsert:
			inserts++
		}
		if op.Kind != OpRead {
			bytes += int64(op.Size)
		}
	}
	return fmt.Sprintf("%d ops (%d reads, %d updates, %d rmws, %d inserts), %d write bytes",
		len(t.Ops), reads, updates, rmws, inserts, bytes)
}
