package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/stats"
)

const tinyScale = 0.01

func tinyOptions(t *testing.T, name string, trace bool) options {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return options{
		w:       w.scaled(tinyScale),
		seed:    1,
		seconds: 0.5,
		trace:   trace,
		con:     testContract(t),
		outDir:  t.TempDir(),
	}
}

func testContract(t *testing.T) *contract {
	con, err := loadContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return con
}

// Every workload, at tiny size, prints every metric BENCHMARK.json names
// with its unit, in both the untraced and the traced run, and the traced run
// writes a Chrome trace file.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	con := testContract(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				o := tinyOptions(t, w.name, trace)
				var out bytes.Buffer
				res, err := run(o, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				want := con.EndToEnd
				if trace {
					want = con.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, contract names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !trace && !strings.Contains(out.String(), m.Name) {
						t.Errorf("output does not print %s", m.Name)
					}
				}
				if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
					t.Errorf("result %+v: want correct, attempted > 0, failed 0", res)
				}
				if trace {
					checkTraceFile(t, filepath.Join(o.outDir, fmt.Sprintf("%s-seed1.trace.json", w.name)))
				}
			})
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		OtherData   map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == pidWall {
			spans++
		}
	}
	if spans == 0 || doc.OtherData["cpu_share_pct"] == nil {
		t.Errorf("%s: %d wall spans, cpu shares %v", path, spans, doc.OtherData["cpu_share_pct"])
	}
}

// The gate passes on a real run's recovery and rejects it once one key's
// durable version is perturbed, or when SPOR or the invariants fail.
func TestGateRejectsPerturbedDurableVersions(t *testing.T) {
	w, err := findWorkload("ycsb-a")
	if err != nil {
		t.Fatal(err)
	}
	db, err := checkin.Open(w.config(1))
	if err != nil {
		t.Fatal(err)
	}
	db.Load()
	spec := w.spec
	spec.TotalQueries = 3000
	if _, err := db.Run(spec); err != nil {
		t.Fatal(err)
	}
	rep := db.SimulateRecovery()
	durable := db.DurableVersions()
	if err := checkRecovery(rep.Recovered, durable, 0, nil); err != nil {
		t.Fatalf("gate fails on an intact run: %v", err)
	}
	k := len(durable) / 2
	durable[k]++
	if err := checkRecovery(rep.Recovered, durable, 0, nil); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("key %d", k)) {
		t.Errorf("perturbed key %d: gate error %v", k, err)
	}
	durable[k]--
	if err := checkRecovery(rep.Recovered, durable, 1, nil); err == nil {
		t.Error("gate passes with a SPOR mismatch")
	}
	if err := checkRecovery(rep.Recovered, durable, 0, errors.New("broken")); err == nil {
		t.Error("gate passes with an invariant failure")
	}
}

// The same seed gives the same sim_digest; another seed gives another.
func TestSimDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := w.scaled(tinyScale)
			digest := func(seed int64) uint64 {
				cs, err := measure(w, seed, 0, subRuns, nil)
				if err != nil {
					t.Fatal(err)
				}
				return simMetrics(cs).digest()
			}
			a, b, c := digest(1), digest(1), digest(2)
			if a != b {
				t.Errorf("seed 1 twice: digests %016x and %016x", a, b)
			}
			if a == c {
				t.Errorf("seeds 1 and 2 share digest %016x", a)
			}
		})
	}
}

func TestAttributeTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      60ms   runtime.lock2
             runtime.chanrecv1
             github.com/checkin-kv/checkin/internal/sim.(*Proc).switchTo
             github.com/checkin-kv/checkin/internal/core.(*Engine).Run
-----------+-------------------------------------------------------
      30ms   github.com/checkin-kv/checkin/internal/ftl.(*FTL).lookup (inline)
             github.com/checkin-kv/checkin.(*DB).Run
             main.run
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
`
	got, err := attributeTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 60, "ftl": 30, "runtime": 10}
	if len(got) != len(want) {
		t.Fatalf("shares %v, want %v", got, want)
	}
	for m, v := range want {
		if math.Abs(got[m]-v) > 1e-9 {
			t.Errorf("%s: %.2f%%, want %.2f%%", m, got[m], v)
		}
	}
	if _, err := attributeTraces("File: x\n"); err == nil {
		t.Error("no samples: want an error")
	}
}

// Interpolated percentiles stay inside the bucket Histogram.Percentile
// names and track the exact value of a uniform sample.
func TestPercentileInterpolates(t *testing.T) {
	var h stats.Histogram
	for v := uint64(1); v <= 100_000; v++ {
		h.Record(v * 10)
	}
	for _, p := range []float64{50, 99, 99.9} {
		got := percentile(&h, p)
		exact := p / 100 * 1e6
		if math.Abs(got-exact)/exact > 0.002 {
			t.Errorf("p%v = %.0f, exact %.0f", p, got, exact)
		}
		if hi := float64(h.Percentile(p)); got > hi || got < hi*0.98 {
			t.Errorf("p%v = %.0f outside its bucket ending at %.0f", p, got, hi)
		}
	}
}
