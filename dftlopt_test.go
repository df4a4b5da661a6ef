package checkin_test

import (
	"fmt"
	"testing"
	"time"

	checkin "github.com/checkin-kv/checkin"
)

// dftlKnobCombos is the remap-aware CMT knob matrix: the full optimization
// stack, the legacy configuration (every knob off — the byte-identity
// anchor), and the two mixed settings that arm each mechanism in isolation.
var dftlKnobCombos = []struct {
	name       string
	fill       string
	cleanWin   int
	remapBatch string
}{
	{"opt", "on", 0, "on"},
	{"legacy", "off", 1, "off"},
	{"fill-only", "on", 1, "off"},
	{"batch-cflru", "off", 8, "on"},
}

// TestDFTLOptDeterminism proves the remap-aware CMT paths are deterministic
// and snapshot-safe: for every knob combination and three seeds, a direct
// load+run and a run forked from a post-load snapshot must produce
// byte-identical full dumps (metrics, journal, recovery, SPOR, health) with
// the differential mapping oracle armed the whole way — any coherence
// divergence panics at the faulting access instead of skewing the diff.
func TestDFTLOptDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("dftl knob determinism matrix in -short mode")
	}
	for _, combo := range dftlKnobCombos {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", combo.name, seed), func(t *testing.T) {
				cfg := checkin.DefaultConfig()
				cfg.Strategy = checkin.StrategyCheckIn
				cfg.Keys = 5_000
				cfg.CheckpointInterval = 100 * time.Millisecond
				cfg.Seed = seed
				cfg.FTLMap = "dftl"
				cfg.CMTFill = combo.fill
				cfg.CMTCleanWindow = combo.cleanWin
				cfg.RemapBatch = combo.remapBatch
				spec := checkin.RunSpec{Threads: 8, TotalQueries: 8_000,
					Mix: checkin.WorkloadA, Zipfian: true}

				direct := func() string {
					db, err := checkin.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					db.Device().FTL().EnableMapOracle()
					db.Load()
					return renderRunOn(t, db, spec)
				}
				forked := func() string {
					db, err := checkin.Open(cfg)
					if err != nil {
						t.Fatal(err)
					}
					db.Device().FTL().EnableMapOracle()
					db.Load()
					snap, err := db.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					fdb, err := snap.Fork(cfg)
					if err != nil {
						t.Fatal(err)
					}
					fdb.Device().FTL().EnableMapOracle()
					return renderRunOn(t, fdb, spec)
				}

				want := direct()
				if got := forked(); got != want {
					t.Fatalf("snapshot/fork run diverges from direct run:\n%s",
						firstDiff(want, got))
				}
			})
		}
	}
}
