package checkin_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/workload"
)

// driverDigestWant pins the closed-loop driver's output over both engines:
// timeline sampling, the latest distribution, trace replay under the
// adaptive live budget, a run with the periodic scheduler off, and a
// simulated recovery after each. Any change to client scheduling, the
// checkpoint tick, the live-budget poll, the sampler or the drain moves it.
const driverDigestWant = "56f0d036d52399a85100a2ee943a0169b518e76c04c56e0aa20b50b08fedfeae"

// driverCase is one closed-loop configuration of the pinned matrix.
type driverCase struct {
	name   string
	budget int // Config.AdaptiveLiveBudget
	spec   func(cfg checkin.Config) checkin.RunSpec
}

func driverCases(t *testing.T) []driverCase {
	mixed := checkin.Mix{ReadPct: 40, UpdatePct: 30, RMWPct: 20, ScanPct: 5, DeletePct: 5, ScanLen: 8}
	return []driverCase{
		{name: "timeline", spec: func(checkin.Config) checkin.RunSpec {
			return checkin.RunSpec{Threads: 4, TotalQueries: 4000, Mix: checkin.WorkloadA, Zipfian: true,
				SampleInterval: 5_000_000}
		}},
		{name: "latest", spec: func(checkin.Config) checkin.RunSpec {
			return checkin.RunSpec{Threads: 4, TotalQueries: 4000, Mix: checkin.WorkloadA, Latest: true}
		}},
		{name: "trace-budget", budget: 100, spec: func(cfg checkin.Config) checkin.RunSpec {
			tr, err := checkin.RecordWorkload(cfg.Keys, cfg.Records, mixed, true, 3000, 11)
			if err != nil {
				t.Fatal(err)
			}
			return checkin.RunSpec{Threads: 6, TotalQueries: 5000, Trace: tr}
		}},
		{name: "no-ckpt", spec: func(checkin.Config) checkin.RunSpec {
			return checkin.RunSpec{Threads: 4, TotalQueries: 3000, Mix: mixed, Zipfian: true,
				DisableCheckpoints: true}
		}},
	}
}

// driverEngines are the two backends the matrix covers.
func driverEngines() map[string]checkin.Config {
	return map[string]checkin.Config{
		"journal": snapTestConfig(checkin.StrategyCheckIn),
		"lsm":     lsmSnapConfig("leveled"),
	}
}

// digestRun writes every exact output of one finished run and the
// recovery that follows it.
func digestRun(w io.Writer, db *checkin.DB, m *checkin.Metrics) {
	fmt.Fprintf(w, "%s", m.Summary())
	fmt.Fprintf(w, "q=%d r=%d w=%d payload=%d elapsed=%d cache=%d rejected=%d live=%v/%d\n",
		m.Queries, m.ReadQueries, m.WriteQueries, m.WriteQueryPayload, m.Elapsed,
		m.HostCacheHits, m.RejectedWrites, m.LiveRatioSum, m.LiveRatioCount)
	for _, h := range []*stats.Histogram{&m.ReadLat, &m.WriteLat, &m.ReadLatCkpt, &m.WriteLatCkpt, &m.AllLat, &m.CkptDur} {
		fmt.Fprintf(w, "hist %d %d %d %d %v\n", h.Count(), h.Sum(), h.Min(), h.Max(), h.Percentiles(50, 99, 99.9))
	}
	fmt.Fprintf(w, "%+v\n%+v\n%+v\n%+v\n%+v\n", m.EndDev, m.EndFtl, m.EndNand, m.JournalStart, m.JournalEnd)
	if m.Timeline != nil {
		if err := m.Timeline.WriteCSV(w); err != nil {
			panic(err)
		}
	}
	fmt.Fprintf(w, "%v\n%v\n", db.DurableVersions(), db.Host().InMemoryVersions())
	rep := db.SimulateRecovery()
	fmt.Fprintf(w, "%+v\nnow=%d\n", *rep, db.Sim().Now())
}

// TestDriverDigestPinned runs the closed-loop driver over both engines and
// every spec shape that takes a distinct driver path, and compares one
// digest of all outputs against the recorded constant.
func TestDriverDigestPinned(t *testing.T) {
	h := sha256.New()
	for _, engine := range []string{"journal", "lsm"} {
		for _, c := range driverCases(t) {
			cfg := driverEngines()[engine]
			cfg.AdaptiveLiveBudget = c.budget
			db, err := checkin.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db.Load()
			m, err := db.Run(c.spec(cfg))
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, c.name, err)
			}
			var b bytes.Buffer
			digestRun(&b, db, m)
			fmt.Fprintf(h, "== %s/%s\n", engine, c.name)
			h.Write(b.Bytes())
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != driverDigestWant {
		t.Fatalf("driver digest %s, want %s", got, driverDigestWant)
	}
}

// TestReplayedInsertsApply: a replayed OpInsert is a write on either
// engine — it journals a new version that becomes durable, exactly like an
// update of the same key and size.
func TestReplayedInsertsApply(t *testing.T) {
	for engine, cfg := range driverEngines() {
		cfg.CheckpointInterval = time.Second
		db, err := checkin.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db.Load()
		tr := &checkin.Trace{Ops: []workload.Op{
			{Kind: workload.OpInsert, Key: 7, Size: 512},
			{Kind: workload.OpInsert, Key: 9, Size: 512},
			{Kind: workload.OpUpdate, Key: 9, Size: 512},
		}}
		m, err := db.Run(checkin.RunSpec{Threads: 1, TotalQueries: 3, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if m.WriteQueries != 3 {
			t.Fatalf("%s: %d write queries, want 3", engine, m.WriteQueries)
		}
		durable := db.DurableVersions()
		if durable[7] != 2 || durable[9] != 3 {
			t.Fatalf("%s: durable versions key7=%d key9=%d, want 2 and 3", engine, durable[7], durable[9])
		}
	}
}
