package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
	"strconv"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/ftl"
	"github.com/checkin-kv/checkin/internal/lsm"
	"github.com/checkin-kv/checkin/internal/nand"
	"github.com/checkin-kv/checkin/internal/shard"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/ssd"
	"github.com/checkin-kv/checkin/internal/stats"
)

// metric is one reported value with its unit, as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an ordered collection of named metrics. count is the sample
// count behind a percentile, printed next to it; hists keeps the histogram a
// closed-loop percentile came from, so sub-runs can be pooled.
type metricSet struct {
	names []string
	vals  map[string]metric
	count map[string]uint64
	hists map[string]histPct
}

type histPct struct {
	h *stats.Histogram
	p float64
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]metric{}, count: map[string]uint64{}, hists: map[string]histPct{}}
}

func (s *metricSet) set(name, unit string, v float64) {
	if _, ok := s.vals[name]; !ok {
		s.names = append(s.names, name)
	}
	s.vals[name] = metric{Value: v, Unit: unit}
}

// pct records a latency percentile in µs with the sample count behind it.
func (s *metricSet) pct(name string, h *stats.Histogram, p float64) {
	s.set(name, "us", percentile(h, p)/1e3)
	s.count[name] = h.Count()
	s.hists[name] = histPct{h, p}
}

// percentile interpolates the p-th percentile linearly inside the histogram
// bucket that holds it. Histogram.Percentile returns the bucket's upper
// edge, which moves in steps of about 1.6 %.
func percentile(h *stats.Histogram, p float64) float64 {
	hi := h.Percentile(p)
	if hi < 64 {
		return float64(hi) // buckets below 64 hold one value each
	}
	shift := bits.Len64(hi) - 6
	lo := hi >> shift << shift
	width := uint64(1) << shift
	atOrAbove := h.CountAbove(lo - 1)
	in := atOrAbove - h.CountAbove(lo+width-1)
	below := h.Count() - atOrAbove
	rank := math.Ceil(p / 100 * float64(h.Count()))
	v := float64(lo) + (rank-float64(below))/float64(in)*float64(width)
	return min(v, float64(h.Max()))
}

func (s *metricSet) get(name string) float64 { return s.vals[name].Value }

// digest hashes every metric's exact value in name order. Two runs with the
// same digest produced bit-identical figures.
func (s *metricSet) digest() uint64 {
	names := append([]string(nil), s.names...)
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		fmt.Fprintf(h, "%s=%s\n", n, strconv.FormatFloat(s.vals[n].Value, 'g', -1, 64))
	}
	return h.Sum64()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerSnap is every layer counter the benchmark reads, at one instant.
type layerSnap struct {
	dev     ssd.Stats
	ftl     ftl.Stats
	nand    nand.Stats
	lsm     lsm.Stats
	journal core.JournalStats
	events  uint64
	dieBusy []sim.VTime
	chBusy  []sim.VTime
}

func snapLayers(db *checkin.DB) layerSnap {
	f := db.Device().FTL()
	arr := f.Array()
	geo := arr.Geometry()
	s := layerSnap{
		dev:     db.Device().Stats(),
		ftl:     f.Stats(),
		nand:    arr.Stats(),
		journal: db.JournalStats(),
		events:  db.Sim().Executed(),
		dieBusy: make([]sim.VTime, geo.TotalDies()),
		chBusy:  make([]sim.VTime, geo.Channels),
	}
	if l, ok := db.Host().(*lsm.Engine); ok {
		s.lsm = l.Stats()
	}
	for d := range s.dieBusy {
		s.dieBusy[d] = arr.DieBusyTotal(d)
	}
	for c := range s.chBusy {
		s.chBusy[c] = arr.ChannelBusyTotal(c)
	}
	return s
}

// closedSimMetrics derives every simulated-time metric of one measured
// closed-loop run from its Metrics and the layer counters around it. The
// values depend only on the configuration and seed.
func closedSimMetrics(db *checkin.DB, m *checkin.Metrics, a, b layerSnap) *metricSet {
	s := newMetricSet()
	q := float64(m.Queries)
	payload := float64(m.WriteQueryPayload)

	// End to end.
	s.set("qps", "1/s", m.ThroughputQPS())
	s.set("mean_us", "us", m.AllLat.Mean()/1e3)
	s.pct("p999_us", &m.AllLat, 99.9)
	s.set("ckpt_mean_ms", "ms", float64(m.MeanCheckpointTime())/1e6)

	// core: the host engine's query path and checkpoints (the lsm engine
	// reports through the same core.Metrics).
	s.pct("core.read_p50_us", &m.ReadLat, 50)
	s.pct("core.read_p999_us", &m.ReadLat, 99.9)
	s.pct("core.write_p50_us", &m.WriteLat, 50)
	s.pct("core.write_p999_us", &m.WriteLat, 99.9)
	s.pct("core.read_ckpt_p999_us", &m.ReadLatCkpt, 99.9)
	s.pct("core.write_ckpt_p999_us", &m.WriteLatCkpt, 99.9)
	s.set("core.ckpt_count", "count", float64(m.Checkpoints()))
	s.set("core.ckpt_max_ms", "ms", float64(m.MaxCheckpointTime())/1e6)
	s.set("core.remap_entries", "count", float64(b.dev.RemapEntries-a.dev.RemapEntries))
	s.set("core.live_ratio", "ratio", m.MeanLiveRatio())
	commits := float64(b.journal.Commits - a.journal.Commits)
	s.set("core.commits", "count", commits)
	s.set("core.bytes_per_commit", "B", ratio(float64(b.journal.StoredBytes-a.journal.StoredBytes), commits))
	s.set("core.space_overhead", "ratio", m.JournalSpaceOverhead())

	// lsm: only under the LSM engine, whose WAL the journal counters report.
	if l, ok := db.Host().(*lsm.Engine); ok {
		ls := func(f func(lsm.Stats) uint64) float64 { return float64(f(b.lsm) - f(a.lsm)) }
		s.set("lsm.flushes", "count", ls(func(x lsm.Stats) uint64 { return x.Flushes }))
		s.set("lsm.compactions", "count", ls(func(x lsm.Stats) uint64 { return x.Compactions }))
		s.set("lsm.compaction_mb", "MB", ls(func(x lsm.Stats) uint64 { return x.CompactionRead + x.CompactionWrite })/1e6)
		s.set("lsm.compaction_amp", "ratio", ratio(ls(func(x lsm.Stats) uint64 { return x.CompactionWrite }),
			ls(func(x lsm.Stats) uint64 { return x.FlushedBytes })))
		runs := 0
		for _, n := range l.Levels() {
			runs += n
		}
		s.set("lsm.runs_live", "count", float64(runs))
		s.set("lsm.wal_bytes_per_commit", "B", s.get("core.bytes_per_commit"))
	}

	// ssd: the controller.
	dv := func(f func(ssd.Stats) uint64) float64 { return float64(f(b.dev) - f(a.dev)) }
	hits := dv(func(x ssd.Stats) uint64 { return x.CacheHits })
	misses := dv(func(x ssd.Stats) uint64 { return x.CacheMisses })
	s.set("ssd.commands_per_query", "cmds/query", ratio(dv(func(x ssd.Stats) uint64 { return x.Commands }), q))
	waitN := float64(b.dev.QueueWait.N - a.dev.QueueWait.N)
	s.set("ssd.queue_wait_us", "us", ratio(float64(b.dev.QueueWait.Sum-a.dev.QueueWait.Sum)/1e3, waitN))
	s.set("ssd.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	s.set("ssd.cow_pairs", "count", dv(func(x ssd.Stats) uint64 { return x.CoWPairs }))
	s.set("ssd.deallocates", "count", dv(func(x ssd.Stats) uint64 { return x.Deallocates }))
	s.set("ssd.background_gcs", "count", dv(func(x ssd.Stats) uint64 { return x.BackgroundGCs }))
	s.set("ssd.io_amp", "ratio", m.IOAmplification())

	// ftl: mapping, GC and DFTL translation traffic.
	fd := func(f func(ftl.Stats) uint64) float64 { return float64(f(b.ftl) - f(a.ftl)) }
	for t := ftl.TagHostJournal; t <= ftl.TagMeta; t++ {
		s.set("ftl.programs."+t.String(), "count", float64(b.ftl.ProgramsByTag[t]-a.ftl.ProgramsByTag[t]))
	}
	s.set("ftl.redundant_programs", "count", float64(b.ftl.RedundantWrites()-a.ftl.RedundantWrites()))
	gcs := fd(func(x ftl.Stats) uint64 { return x.GCInvocations })
	reclaims := gcs + fd(func(x ftl.Stats) uint64 { return x.DeadReclaims })
	s.set("ftl.gc_invocations", "count", gcs)
	s.set("ftl.reclaims", "count", reclaims)
	s.set("ftl.gc_migrated_per_reclaim", "slots", ratio(fd(func(x ftl.Stats) uint64 { return x.GCMigratedSlot }), reclaims))
	remaps := fd(func(x ftl.Stats) uint64 { return x.Remaps })
	s.set("ftl.remaps", "count", remaps)
	s.set("ftl.remap_rmw_ratio", "ratio", ratio(fd(func(x ftl.Stats) uint64 { return x.RemapRMWs }), remaps))
	cmtHits := fd(func(x ftl.Stats) uint64 { return x.CMTHits })
	cmtMisses := fd(func(x ftl.Stats) uint64 { return x.CMTMisses })
	s.set("ftl.cmt_hit_ratio", "ratio", ratio(cmtHits, cmtHits+cmtMisses))
	s.set("ftl.cmt_misses", "count", cmtMisses)
	s.set("ftl.cmt_evictions", "count", fd(func(x ftl.Stats) uint64 { return x.CMTEvictions }))
	s.set("ftl.trans_flushes", "count", fd(func(x ftl.Stats) uint64 { return x.TransFlushes }))
	s.set("ftl.trans_reads.host", "count", fd(func(x ftl.Stats) uint64 { return x.TransReadsHost }))
	s.set("ftl.trans_reads.rmw", "count", fd(func(x ftl.Stats) uint64 { return x.TransReadsRMW }))
	s.set("ftl.trans_reads.gc", "count", fd(func(x ftl.Stats) uint64 { return x.TransReadsGC }))

	// nand: flash operations and die/channel utilisation over the window.
	s.set("nand.programs", "count", float64(b.nand.Programs-a.nand.Programs))
	s.set("nand.reads", "count", float64(b.nand.Reads-a.nand.Reads))
	s.set("nand.erases", "count", float64(b.nand.Erases-a.nand.Erases))
	s.set("nand.flash_amp", "ratio", ratio(float64(b.nand.BytesProgrammed-a.nand.BytesProgrammed+
		b.nand.BytesRead-a.nand.BytesRead), payload))
	elapsed := float64(m.Elapsed)
	var dieSum, dieMax, chSum float64
	for d := range a.dieBusy {
		u := ratio(float64(b.dieBusy[d]-a.dieBusy[d]), elapsed)
		dieSum += u
		dieMax = max(dieMax, u)
	}
	for c := range a.chBusy {
		chSum += ratio(float64(b.chBusy[c]-a.chBusy[c]), elapsed)
	}
	s.set("nand.die_util_mean", "ratio", dieSum/float64(len(a.dieBusy)))
	s.set("nand.die_util_max", "ratio", dieMax)
	s.set("nand.channel_util_mean", "ratio", chSum/float64(len(a.chBusy)))

	// sim: model events per query (the wall cost per event is host-side).
	s.set("sim.events_per_query", "events/query", ratio(float64(b.events-a.events), q))
	return s
}

// shardSimMetrics derives the simulated-time metrics of one sharded run
// from its report. The device layers of each shard are private to the
// ShardedDB, so their counters are not available here.
func shardSimMetrics(rep *shard.Report) *metricSet {
	s := newMetricSet()
	var meanSum, missSum float64
	var p99, p999 sim.VTime
	for _, t := range rep.Tenants {
		meanSum += float64(t.Mean) * float64(t.Done)
		missSum += t.SLOMissPct * float64(t.Done)
		p99, p999 = max(p99, t.P99), max(p999, t.P999)
	}
	done := float64(rep.Done)
	s.set("qps", "1/s", ratio(done, rep.Elapsed.Seconds()))
	s.set("mean_us", "us", ratio(meanSum, done)/1e3)
	// Worst tenant at each percentile; the count is all completed ops.
	for _, p := range []struct {
		name string
		v    sim.VTime
	}{{"shard.p99_us", p99}, {"p999_us", p999}} {
		s.set(p.name, "us", float64(p.v)/1e3)
		s.count[p.name] = rep.Done
	}
	var ckpts, ckptSum float64
	var peak int
	var maxDone float64
	for _, r := range rep.ShardRows {
		ckpts += float64(r.Checkpoints)
		ckptSum += float64(r.MeanCkpt) * float64(r.Checkpoints)
		peak = max(peak, r.PeakQueue)
		maxDone = max(maxDone, float64(r.Done))
	}
	s.set("ckpt_mean_ms", "ms", ratio(ckptSum, ckpts)/1e6)
	s.set("core.ckpt_count", "count", ckpts)
	s.set("shard.slo_miss_pct", "%", ratio(missSum, done))
	s.set("shard.peak_queue", "count", float64(peak))
	s.set("shard.done_imbalance", "ratio", ratio(maxDone, done/float64(len(rep.ShardRows))))
	return s
}
