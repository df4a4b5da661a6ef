package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	checkin "github.com/checkin-kv/checkin"
	"github.com/checkin-kv/checkin/internal/sim"
	"github.com/checkin-kv/checkin/internal/stats"
	"github.com/checkin-kv/checkin/internal/trace"
	"github.com/checkin-kv/checkin/internal/workload"
)

// Chrome trace-event process ids: the benchmark's wall-clock spans and the
// program's own simulated-time events.
const (
	pidWall = 1
	pidSim  = 2
)

// traceEvent is one Chrome trace-event record (ts and dur in µs).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// recorder keeps the traced run's events in memory until it is written. A
// nil recorder only times: every call site measures the same way whether
// or not the run is traced.
type recorder struct {
	origin time.Time
	events []traceEvent
	simOff float64 // µs offset of the next simulated-time track
}

func newRecorder() *recorder {
	r := &recorder{origin: time.Now()}
	r.meta(pidWall, "host wall clock: benchmark spans around each layer call")
	r.meta(pidSim, "simulated time: trace ring, checkpoints and timeline samples")
	return r
}

func (r *recorder) meta(pid int, name string) {
	r.events = append(r.events, traceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timed runs fn and returns its wall time; a non-nil recorder also keeps it
// as a span. The category is the layer the span's name starts with.
func (r *recorder) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if r != nil {
		cat, _, _ := strings.Cut(name, ".")
		r.events = append(r.events, traceEvent{Name: name, Cat: cat, Ph: "X",
			Ts: micros(start.Sub(r.origin)), Dur: micros(d), Pid: pidWall, Tid: 1})
	}
	return d
}

// simTrack adds one measured run's simulated-time events: the trace ring
// (checkpoint spans, GC victims, commits), and the timeline samples as
// counters. Times are µs of simulated time from the run's start, placed
// after any track already recorded.
func (r *recorder) simTrack(label string, events []trace.Event, tl *stats.Timeline, start sim.VTime) {
	base := r.simOff
	at := func(t sim.VTime) float64 { return base + float64(t-start)/1e3 }
	end := base
	r.events = append(r.events, traceEvent{Name: label, Ph: "i", S: "p", Ts: base, Pid: pidSim, Tid: 1})
	open := false
	for _, e := range events {
		if e.At < start {
			continue // warm-up
		}
		ts := at(e.At)
		end = max(end, ts)
		switch e.Kind {
		case trace.KindCheckpointBegin:
			r.events = append(r.events, traceEvent{Name: "checkpoint", Cat: "core", Ph: "B", Ts: ts, Pid: pidSim, Tid: 1,
				Args: map[string]any{"arg": e.Arg, "detail": e.Detail}})
			open = true
		case trace.KindCheckpointEnd:
			if open {
				r.events = append(r.events, traceEvent{Name: "checkpoint", Ph: "E", Ts: ts, Pid: pidSim, Tid: 1})
				open = false
			}
		default:
			r.events = append(r.events, traceEvent{Name: e.Kind.String(), Ph: "i", S: "t", Ts: ts, Pid: pidSim, Tid: 2,
				Args: map[string]any{"arg": e.Arg, "detail": e.Detail}})
		}
	}
	if tl != nil {
		names := tl.Names()
		for i := 0; i < tl.Len(); i++ {
			off, vals := tl.At(i)
			ts := base + float64(off)/1e3
			end = max(end, ts)
			for j, v := range vals {
				r.events = append(r.events, traceEvent{Name: names[j], Ph: "C", Ts: ts, Pid: pidSim, Tid: 3,
					Args: map[string]any{names[j]: v}})
			}
		}
	}
	r.simOff = end + 1000
}

// write saves the trace as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open.
func (r *recorder) write(path string, other map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{
		"traceEvents":     r.events,
		"displayTimeUnit": "ms",
		"otherData":       other,
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cpuModules are the repository packages a CPU sample can be charged to:
// the root package, each internal package the workloads reach, the
// benchmark itself, and "runtime" for samples with no repository frame.
var cpuModules = []string{"checkin", "core", "lsm", "shard", "ssd", "ftl", "nand",
	"sim", "workload", "stats", "trace", "inject", "perfbench", "runtime"}

const repoPath = "github.com/checkin-kv/checkin"

// moduleOf names the repository package a pprof function name belongs to,
// or "" for code outside the repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoPath+"/internal/"):
		rest := fn[len(repoPath+"/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, repoPath+"."):
		return "checkin"
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	}
	return ""
}

// attributeTraces parses `go tool pprof -traces` output and charges each
// sample to its innermost repository frame, so scheduler and channel frames
// under a process switch land on sim. It returns each module's share in
// percent.
func attributeTraces(out string) (map[string]float64, error) {
	by := map[string]float64{}
	var total float64
	var value float64
	charged := true
	flush := func() {
		if !charged {
			by["runtime"] += value
			charged = true
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			value = 0
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(fields) == 0 {
			continue
		}
		fn := fields[len(fields)-1]
		if len(fields) == 2 && value == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue // header lines: File, Type, Time, Duration
			}
			value = float64(d)
			total += value
			charged = false
		}
		if !charged && value > 0 {
			if m := moduleOf(fn); m != "" {
				by[m] += value
				charged = true
			}
		}
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("cpu profile: no samples")
	}
	for m := range by {
		by[m] = 100 * by[m] / total
	}
	return by, nil
}

// cpuShares runs pprof over a CPU profile and attributes its samples.
func cpuShares(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	return attributeTraces(string(out))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the middle value (mean of the two middle ones).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeat runs a drive five times and returns the median result.
func repeat(f func() float64) float64 {
	xs := make([]float64, 5)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// switchNS drives two Procs that alternate on one engine, one through
// Sleep and one through a Future completed by a scheduled event, and
// returns wall ns per process resume.
func switchNS(n int) float64 {
	e := sim.NewEngine()
	e.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	e.Go("waiter", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f := sim.NewFuture(e)
			e.Schedule(1, f.Complete)
			p.Wait(f)
		}
	})
	start := time.Now()
	e.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(2*n)
}

// drawSink keeps generator draws observable so the loop is not removed.
var drawSink int64

// drawNS returns wall ns per operation drawn from a workload generator
// over dist (YCSB-A mix, fixed 1 KiB records). The run's seed goes only to
// Config.Seed, so the drive's generator has a fixed one.
func drawNS(dist workload.Distribution, n int) float64 {
	gen, err := workload.NewGenerator(dist, checkin.FixedRecords(1024), checkin.WorkloadA, sim.NewRNG(1))
	if err != nil {
		panic(err) // the mix and sizer are constants
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		drawSink += gen.Next().Key
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
