// Package check is the crash-consistency verification subsystem: a
// model-based oracle, a crash-point fault injector, and a differential
// harness that together assert the five checkpointing strategies are
// *correct* — equal recovered state after a crash at any instrumented
// point — and only differ in cost.
//
// The pieces:
//
//   - Model: a plain in-memory map of per-key committed versions, updated
//     from the journal's commit hook the instant a group commit becomes
//     durable. At any moment it is the ground truth for what recovery must
//     reproduce (the "committed prefix" of the operation stream).
//
//   - Census: a run with a counting-only injector records how many times
//     each inject.Site fires on a given (strategy, seed, trace). The
//     simulation is deterministic, so the census is a complete schedule of
//     crashable instants.
//
//   - CrashMatrix: for every site the census saw, re-run the same trace
//     with the injector armed to crash at chosen hits. At the crash instant
//     (deferred to an immediate scheduler slot so mid-event call chains
//     have restored their invariants) the harness validates:
//
//     1. host recovery — Engine.RecoveredVersions() (checkpoint + committed
//     journal replay) equals the model's committed versions, exactly;
//     2. device SPOR — ftl.VerifySPOR() rebuilds the mapping table from
//     OOB records with zero mismatches (volatile write-buffer loss is
//     reported separately and is legal);
//     3. FTL invariants — ftl.CheckInvariants() (refcount consistency,
//     LSN→slot bijection, valid-page and free-pool accounting).
//
// Every failure carries (strategy, seed, site, hit): re-arming the same
// injector on the same seed reproduces it exactly.
package check

import (
	"fmt"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/core"
	"github.com/checkin-kv/checkin/internal/inject"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Model is the reference oracle: per-key committed versions, maintained
// from the journal commit hook. After Load every key is at version 1; each
// committed update/delete advances its key.
type Model struct {
	committed []int64
}

// NewModel returns a model for a population of keys, all at version 0
// (not yet loaded).
func NewModel(keys int64) *Model {
	return &Model{committed: make([]int64, keys)}
}

// Loaded marks the whole population at version 1 (the bulk-load phase).
func (m *Model) Loaded() {
	for k := range m.committed {
		m.committed[k] = 1
	}
}

// Commit records that (key, version) became durable. Versions are
// monotonic per key, but group commits of different keys may interleave.
func (m *Model) Commit(key, version int64) {
	if version > m.committed[key] {
		m.committed[key] = version
	}
}

// Committed returns the per-key committed versions (the live slice — do
// not mutate).
func (m *Model) Committed() []int64 { return m.committed }

// Options scales the verification workload. The zero value is unusable;
// start from DefaultOptions.
type Options struct {
	Keys    int64
	Ops     int
	Threads int
	// CrashesPerSite bounds how many distinct hits of each site are
	// crash-tested per (strategy, seed).
	CrashesPerSite int
	// Errors names a checkin.ErrorProfile applied to every build ("" or
	// "off" = perfect flash). With a profile on, the NAND fault model runs
	// under the same deterministic schedule in the census and every armed
	// run, so crash points and flash faults compose: a crash can land in
	// the middle of a read-retry ladder or a bad-block migration.
	Errors string
	// FTLMap selects the mapping-table model for every build ("" = dram).
	// Under "dftl" the translation-page sites fire and the differential
	// mapping oracle arms, so a crash can land mid-writeback or mid-
	// translation-GC with the CMT coherence sweep validating the instant.
	FTLMap string
	// CMTEntries bounds the dftl CMT (0 = derive from MapCacheMB). The
	// matrix pins it small so capacity evictions actually happen at
	// verification scale.
	CMTEntries int
	// CMTFill, CMTCleanWindow and RemapBatch forward the dftl CMT
	// optimization knobs (""/zero = defaults on; "off"/1 restore the
	// pre-optimization paths), so matrices can also crash-test the legacy
	// code paths.
	CMTFill        string
	CMTCleanWindow int
	RemapBatch     string
	// Engine selects the host backend for every build ("" = journal).
	// Under "lsm" the WAL/memtable/compaction sites fire and recovery is
	// manifest + WAL-tail replay instead of checkpoint + journal replay —
	// the same oracle validates both.
	Engine string
	// Compaction and MemtableEntries forward the LSM shape (ignored by the
	// journal engine). The LSM matrix pins the memtable small so flush and
	// compaction happen many times within one verification trace.
	Compaction      string
	MemtableEntries int
}

// DefaultOptions is sized so one (strategy, seed) matrix — census plus all
// armed runs — completes in well under a second of wall clock while still
// driving group commits, checkpoints on both the periodic and soft
// triggers, journal deallocation, foreground/background GC, metadata
// flushes and wear leveling.
func DefaultOptions() Options {
	return Options{Keys: 1500, Ops: 3000, Threads: 4, CrashesPerSite: 2}
}

// DFTLCMTEntries pins the dftl verification builds' CMT bound at two
// translation pages' worth of entries (the minimum at the 4 KB page size):
// small enough that the workload forces capacity evictions — including
// dirty-tail evictions that write the victim's translation page back — so
// the trans-evict site fires. The checkin-sim -crashpoints CLI uses the
// same value, keeping repro lines faithful.
const DFTLCMTEntries = 1024

// DFTLOptions is the dftl crash-matrix schedule: DefaultOptions with the
// flash-resident mapping table on, the CMT/writeback knobs pinned, and a
// longer trace so translation-block churn builds enough GC pressure that
// the trans-gc site fires. Tests and the checkin-sim -crashpoints CLI must
// both use it so (seed, site, hit) repro lines replay identically.
func DFTLOptions() Options {
	o := DefaultOptions()
	o.Ops = 9000
	o.FTLMap = "dftl"
	o.CMTEntries = DFTLCMTEntries
	return o
}

// LSMOptions is the LSM-backend crash-matrix schedule: DefaultOptions with
// the lsm engine selected, a longer trace, and a small memtable bound so
// the run crosses many flush epochs and several compactions — enough that
// every LSM site (wal-append, wal-commit, mem-flush, compact-install,
// manifest-publish) fires. Tests and the checkin-sim -crashpoints CLI must
// both use it so (seed, site, hit, -engine=lsm) repro lines replay
// identically. policy selects the compaction policy under test.
func LSMOptions(policy string) Options {
	o := DefaultOptions()
	o.Ops = 6000
	o.Engine = "lsm"
	o.Compaction = policy
	o.MemtableEntries = 256
	return o
}

// Mix is the verification workload: write-heavy so the journal and
// checkpoint paths dominate, with deletes so tombstones ride along.
var Mix = workload.Mix{ReadPct: 25, UpdatePct: 60, RMWPct: 10, DeletePct: 5}

// sizer spans the interesting log classes at the 512-byte remap unit:
// sub-unit logs (padded / merged partials), exactly-unit logs, and
// larger-than-unit logs (compressed FULL).
func sizer() checkin.Sizer {
	return checkin.MixedRecords("check-mix",
		[]int{96, 180, 256, 480, 512, 1100, 1900},
		[]int{2, 2, 2, 2, 1, 1, 1})
}

// NewTrace records the operation stream for one seed. All strategies and
// all crash runs of that seed replay this byte-identical trace.
func NewTrace(opts Options, seed int64) (*checkin.Trace, error) {
	return checkin.RecordWorkload(opts.Keys, sizer(), Mix, true, opts.Ops, seed)
}

// Build opens a reduced-scale DB for strategy with the given injector
// threaded through every layer, and installs a fresh Model on the commit
// hook. The flash geometry is small enough (16 MB raw) that the trace
// forces garbage collection and metadata flushes.
func Build(strategy checkin.Strategy, seed int64, opts Options, inj *inject.Injector) (*checkin.DB, *Model, error) {
	cfg := checkin.DefaultConfig()
	cfg.Strategy = strategy
	cfg.Seed = seed
	cfg.Channels = 2
	cfg.DiesPerChannel = 2
	cfg.PlanesPerDie = 1
	cfg.BlocksPerPlane = 32
	cfg.PagesPerBlock = 32
	cfg.PageSizeBytes = 4096
	cfg.Keys = opts.Keys
	cfg.Records = sizer()
	cfg.JournalHalfMB = 1
	cfg.CheckpointInterval = 25 * time.Millisecond
	cfg.DataCacheMB = 1
	cfg.WearDeltaThreshold = 3
	cfg.Injector = inj
	cfg.FTLMap = opts.FTLMap
	cfg.CMTEntries = opts.CMTEntries
	cfg.CMTFill = opts.CMTFill
	cfg.CMTCleanWindow = opts.CMTCleanWindow
	cfg.RemapBatch = opts.RemapBatch
	cfg.Engine = opts.Engine
	cfg.Compaction = opts.Compaction
	cfg.MemtableEntries = opts.MemtableEntries
	if opts.FTLMap == "dftl" {
		// Tighter free-space margin so GC pressure stays high with the
		// translation stream competing for blocks.
		cfg.BlocksPerPlane = 24
		// Conventional 4KB-unit strategies touch only a few hundred
		// distinct luns at verification scale — less than one default
		// writeback batch — so scale the dirty-entry threshold to the
		// mapping footprint. Sub-page strategies keep the default: their
		// working set is large enough to exercise both the threshold
		// flush and the LRU dirty-tail eviction.
		if strategy.DefaultMappingUnit() == cfg.PageSizeBytes {
			cfg.MetaFlushEntries = 64
		}
	}
	if opts.Errors != "" {
		profile, err := checkin.ParseErrorProfile(opts.Errors)
		if err != nil {
			return nil, nil, err
		}
		cfg = profile.Apply(cfg)
	}
	db, err := checkin.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	if opts.FTLMap == "dftl" {
		// Every verification build runs with the differential mapping
		// oracle armed: a coherence divergence panics at the faulting
		// access instead of surfacing as a downstream validation diff.
		db.Device().FTL().EnableMapOracle()
	}
	model := NewModel(opts.Keys)
	db.Host().SetCommitHook(model.Commit)
	return db, model, nil
}

// Validate performs the three crash-point checks against db's current
// state. It is pure — callable from inside a simulation event.
func Validate(db *checkin.DB, model *Model) error {
	recovered := db.Host().RecoveredVersions()
	want := model.Committed()
	diffs := 0
	var first string
	for k := range want {
		if recovered[k] != want[k] {
			if diffs == 0 {
				first = fmt.Sprintf("key %d: recovered version %d, model committed %d", k, recovered[k], want[k])
			}
			diffs++
		}
	}
	if diffs > 0 {
		return fmt.Errorf("host recovery diverges from reference model at %d keys (first: %s)", diffs, first)
	}
	if rep := db.Device().FTL().VerifySPOR(); rep.Mismatches != 0 {
		return fmt.Errorf("device SPOR rebuild lost durable state: %s", rep)
	}
	if err := db.Device().FTL().CheckInvariants(); err != nil {
		return err
	}
	return nil
}

// replay runs the recorded trace to completion.
func replay(db *checkin.DB, tr *checkin.Trace, opts Options) error {
	_, err := db.Run(checkin.RunSpec{
		Threads:      opts.Threads,
		TotalQueries: int64(len(tr.Ops)),
		Trace:        tr,
	})
	return err
}

// Census is the per-site hit schedule of one (strategy, seed, trace): how
// many times each site fired during the measured run (load-phase hits
// excluded — crashes are only armed after Load).
type Census struct {
	RunHits [inject.NumSites]int
}

// RunCensus replays the trace under a counting-only injector. The final
// state is also validated (a crash-free run must trivially pass) and the
// model returned for the equivalence check.
func RunCensus(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options) (*Census, *Model, *checkin.DB, error) {
	inj := inject.New()
	db, model, err := Build(strategy, seed, opts, inj)
	if err != nil {
		return nil, nil, nil, err
	}
	db.Load()
	model.Loaded()
	loadHits := inj.Counts()
	if err := replay(db, tr, opts); err != nil {
		return nil, nil, nil, err
	}
	c := &Census{}
	for i, n := range inj.Counts() {
		c.RunHits[i] = n - loadHits[i]
	}
	if err := Validate(db, model); err != nil {
		return nil, nil, nil, fmt.Errorf("crash-free run failed validation (strategy=%s seed=%d): %w", strategy, seed, err)
	}
	return c, model, db, nil
}

// CrashResult is the outcome of one armed run.
type CrashResult struct {
	Strategy checkin.Strategy
	Seed     int64
	Site     inject.Site
	Hit      int    // 1-based hit index within the measured run
	Errors   string // error profile the run was built with ("" = off)
	FTLMap   string // mapping-table model the run was built with ("" = dram)
	Engine   string // host backend the run was built with ("" = journal)
	Policy   string // LSM compaction policy ("" = n/a or leveled default)
	Fired    bool
	Err      error
}

// Repro renders the one-command reproduction line.
func (r CrashResult) Repro() string {
	line := fmt.Sprintf("checkin-sim -crashpoints -strategy=%s -seed=%d -site=%s -hit=%d",
		r.Strategy, r.Seed, r.Site, r.Hit)
	if r.Errors != "" {
		line += fmt.Sprintf(" -errors=%s", r.Errors)
	}
	if r.FTLMap != "" && r.FTLMap != "dram" {
		line += fmt.Sprintf(" -ftlmap=%s", r.FTLMap)
	}
	if r.Engine != "" && r.Engine != "journal" {
		line += fmt.Sprintf(" -engine=%s", r.Engine)
		if r.Policy != "" && r.Policy != "leveled" {
			line += fmt.Sprintf(" -compaction=%s", r.Policy)
		}
	}
	return line
}

func (r CrashResult) String() string {
	status := "ok"
	switch {
	case !r.Fired:
		status = "site did not fire"
	case r.Err != nil:
		status = "FAIL: " + r.Err.Error()
	}
	return fmt.Sprintf("(seed=%d, site=%s#%d, strategy=%s): %s", r.Seed, r.Site, r.Hit, r.Strategy, status)
}

// RunCrash replays the trace with a crash armed at the hit-th firing of
// site after Load (hit is 1-based). At the crash instant the full state
// validation runs; the simulation then continues to completion so the
// armed run's hit counting stays comparable to the census.
func RunCrash(strategy checkin.Strategy, seed int64, site inject.Site, hit int, tr *checkin.Trace, opts Options) CrashResult {
	res := CrashResult{Strategy: strategy, Seed: seed, Site: site, Hit: hit,
		Errors: opts.Errors, FTLMap: opts.FTLMap, Engine: opts.Engine,
		Policy: opts.Compaction}
	inj := inject.New()
	db, model, err := Build(strategy, seed, opts, inj)
	if err != nil {
		res.Err = err
		return res
	}
	db.Load()
	model.Loaded()
	eng := db.Sim()
	inj.Arm(site, hit-1,
		func(fire func()) { eng.Schedule(0, fire) },
		func(s inject.Site, n int) {
			if err := Validate(db, model); err != nil {
				res.Err = fmt.Errorf("%s: %w", res.Repro(), err)
			}
		})
	if err := replay(db, tr, opts); err != nil {
		res.Err = err
		return res
	}
	_, _, res.Fired = inj.Fired()
	return res
}

// CrashMatrix runs the full schedule for one (strategy, seed): a census,
// then up to CrashesPerSite armed runs per site that fired, sampling hits
// evenly across each site's schedule (first, middle, last...). The census
// is returned so callers can assert site coverage.
func CrashMatrix(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options) ([]CrashResult, *Census, error) {
	return CrashMatrixSites(strategy, seed, tr, opts, inject.Sites())
}

// CrashMatrixSites is CrashMatrix restricted to a subset of sites. The
// error matrix uses it to arm only the NAND fault sites (plus a couple of
// core sites, proving composition) without re-testing every crash point the
// zero-rate matrix already covers.
func CrashMatrixSites(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options, sites []inject.Site) ([]CrashResult, *Census, error) {
	census, _, _, err := RunCensus(strategy, seed, tr, opts)
	if err != nil {
		return nil, nil, err
	}
	var results []CrashResult
	for _, site := range sites {
		n := census.RunHits[site]
		if n == 0 {
			continue
		}
		for _, hit := range sampleHits(n, opts.CrashesPerSite) {
			results = append(results, RunCrash(strategy, seed, site, hit, tr, opts))
		}
	}
	return results, census, nil
}

// sampleHits picks up to k distinct 1-based hit indexes spread over [1, n]:
// always the first and last firing, with the rest evenly between.
func sampleHits(n, k int) []int {
	if k < 1 {
		k = 1
	}
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	if k == 1 {
		return []int{(n + 1) / 2}
	}
	out := make([]int, 0, k)
	seen := make(map[int]bool)
	for i := 0; i < k; i++ {
		h := 1 + i*(n-1)/(k-1)
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// FinalVersions replays the trace crash-free and returns the final
// in-memory per-key versions — the cross-strategy equivalence signature
// (every strategy must produce the identical vector for one trace).
func FinalVersions(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options) ([]int64, error) {
	_, _, db, err := RunCensus(strategy, seed, tr, opts)
	if err != nil {
		return nil, err
	}
	return db.Host().InMemoryVersions(), nil
}

// EpochSignatures is the cross-backend differential driver: one client
// applies the trace sequentially through the HostEngine interface, and
// every epochEvery operations it syncs, cuts a checkpoint epoch, and
// captures the recovered-version vector (what a crash at that instant
// reconstructs). Two backends fed the same trace must produce identical
// signature sequences — same committed prefix at every epoch — regardless
// of how differently they lay the data out. The final state is also fully
// validated against the reference model.
func EpochSignatures(strategy checkin.Strategy, seed int64, tr *checkin.Trace, opts Options, epochEvery int) ([][]int64, error) {
	db, model, err := Build(strategy, seed, opts, inject.New())
	if err != nil {
		return nil, err
	}
	db.Load()
	model.Loaded()
	host := db.Host()
	eng := db.Sim()

	var sigs [][]int64
	var fail error
	done := false
	eng.Go("equivalence-driver", func(p *sim.Proc) {
		for i, op := range tr.Ops {
			core.Exec(host, p, op)
			if (i+1)%epochEvery == 0 {
				host.Sync(p)
				p.Wait(host.TriggerCheckpoint())
				sig := host.RecoveredVersions()
				// Every epoch's recovered state must already equal the
				// model's committed prefix (after Sync they coincide).
				for k := range sig {
					if sig[k] != model.Committed()[k] {
						fail = fmt.Errorf("epoch %d: recovered[%d]=%d, model committed %d",
							len(sigs), k, sig[k], model.Committed()[k])
						return
					}
				}
				sigs = append(sigs, sig)
			}
		}
		done = true
	})
	for !done && fail == nil {
		eng.RunUntil(eng.Now() + 50*sim.Millisecond)
	}
	if fail != nil {
		return nil, fail
	}
	if err := Validate(db, model); err != nil {
		return nil, fmt.Errorf("final validation: %w", err)
	}
	return sigs, nil
}
