// Package workload generates YCSB-compatible key-value workloads: uniform
// and Zipfian request distributions, the paper's workload mixes (A, F and
// write-only), and the record-size patterns used by the sector-aligned-
// journaling sensitivity study (random mixes of 128–4096-byte records).
//
// Generation is fully deterministic given a seed; the same configuration
// always produces the same operation stream.
package workload

import (
	"fmt"
	"math"

	"github.com/checkin-kv/checkin/internal/sim"
)

// OpKind is the type of a key-value operation.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpReadModifyWrite
	OpScan
	OpDelete
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpReadModifyWrite:
		return "rmw"
	case OpScan:
		return "scan"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  int64
	Size int // value size in bytes (reads carry the record's size too)
	// ScanLen is the record count of a scan (OpScan only).
	ScanLen int
}

// Distribution selects keys.
type Distribution interface {
	// Next returns a key in [0, Keys).
	Next(rng *sim.RNG) int64
	// Name returns the distribution's display name.
	Name() string
}

// Uniform chooses keys uniformly.
type Uniform struct{ Keys int64 }

// Next returns a uniformly distributed key.
func (u Uniform) Next(rng *sim.RNG) int64 { return rng.Int63n(u.Keys) }

// Name returns "uniform".
func (u Uniform) Name() string { return "uniform" }

// Zipfian chooses keys with the YCSB scrambled-Zipfian distribution
// (Gray et al. generator, default θ = 0.99), so a small set of keys absorbs
// most of the traffic — the access pattern that makes checkpoints cheap to
// deduplicate but journals full of stale versions.
type Zipfian struct {
	keys  int64
	theta float64

	zetaN, zeta2 float64
	alpha, eta   float64
	// rank1 is 1 + 0.5^θ: a scaled draw below it (and at least 1) is rank 1.
	rank1 float64
}

// DefaultTheta is YCSB's default skew parameter.
const DefaultTheta = 0.99

// NewZipfian precomputes the generator constants for n keys.
func NewZipfian(n int64, theta float64) *Zipfian {
	if n < 1 {
		panic("workload: zipfian over empty key space")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v out of (0,1)", theta))
	}
	z := &Zipfian{keys: n, theta: theta}
	z.zetaN = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetaN)
	z.rank1 = 1 + math.Pow(0.5, theta)
	return z
}

func zeta(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns a scrambled Zipfian key.
func (z *Zipfian) Next(rng *sim.RNG) int64 {
	return scramble(z.rank(rng)) % z.keys
}

// rank draws the un-scrambled Zipfian rank (0 = hottest).
func (z *Zipfian) rank(rng *sim.RNG) int64 {
	u := rng.Float64()
	uz := u * z.zetaN
	var r int64
	switch {
	case uz < 1:
		r = 0
	case uz < z.rank1:
		r = 1
	default:
		r = int64(float64(z.keys) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if r >= z.keys {
		r = z.keys - 1
	}
	return r
}

// Name returns "zipfian".
func (z *Zipfian) Name() string { return "zipfian" }

// scramble spreads the hottest ranks across the key space, as YCSB does, so
// hot keys are not physically adjacent.
func scramble(v int64) int64 {
	// FNV-1a over the 8 little-endian bytes of v.
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// Sizer assigns a value size to each key. A key's size is stable across
// updates (records do not change shape in the paper's workloads).
type Sizer interface {
	SizeOf(key int64) int
	Name() string
}

// FixedSizer gives every record the same size.
type FixedSizer struct{ Size int }

// SizeOf returns the fixed size.
func (s FixedSizer) SizeOf(int64) int { return s.Size }

// Name describes the sizer.
func (s FixedSizer) Name() string { return fmt.Sprintf("fixed-%dB", s.Size) }

// MixSizer draws each key's size from a weighted set of sizes, keyed by a
// hash of the key so the assignment is stable.
type MixSizer struct {
	label   string
	sizes   []int
	weights []int
	total   int
}

// NewMixSizer builds a sizer from parallel size/weight slices.
func NewMixSizer(label string, sizes, weights []int) *MixSizer {
	if len(sizes) == 0 || len(sizes) != len(weights) {
		panic("workload: bad size mix")
	}
	m := &MixSizer{label: label, sizes: sizes, weights: weights}
	for _, w := range weights {
		if w <= 0 {
			panic("workload: non-positive weight")
		}
		m.total += w
	}
	return m
}

// SizeOf returns the stable size for key.
func (m *MixSizer) SizeOf(key int64) int {
	r := int(uint64(scramble(key^0x5ca1ab1e)) % uint64(m.total))
	for i, w := range m.weights {
		if r < w {
			return m.sizes[i]
		}
		r -= w
	}
	return m.sizes[len(m.sizes)-1]
}

// Name returns the mix label.
func (m *MixSizer) Name() string { return m.label }

// The four record-size patterns of the paper's Figure 13(b): random mixes
// of record sizes from 128 to 4096 bytes with different emphases.
var (
	PatternP1 = NewMixSizer("P1-even", []int{128, 256, 512, 1024, 2048, 4096}, []int{1, 1, 1, 1, 1, 1})
	PatternP2 = NewMixSizer("P2-small", []int{128, 256, 384, 512, 1024}, []int{4, 4, 3, 2, 1})
	PatternP3 = NewMixSizer("P3-large", []int{512, 1024, 2048, 4096}, []int{1, 2, 3, 4})
	PatternP4 = NewMixSizer("P4-bimodal", []int{128, 4096}, []int{3, 2})
)

// Mix gives the proportion of each operation kind, in percent.
type Mix struct {
	ReadPct   int
	UpdatePct int
	RMWPct    int
	ScanPct   int
	DeletePct int
	// ScanLen is the record count per scan (default 50 when ScanPct > 0,
	// YCSB-E's average).
	ScanLen int
}

// Validate checks the mix sums to 100.
func (m Mix) Validate() error {
	if m.ReadPct < 0 || m.UpdatePct < 0 || m.RMWPct < 0 || m.ScanPct < 0 || m.DeletePct < 0 ||
		m.ReadPct+m.UpdatePct+m.RMWPct+m.ScanPct+m.DeletePct != 100 {
		return fmt.Errorf("workload: mix %+v must be non-negative and sum to 100", m)
	}
	return nil
}

// The paper's workload mixes.
var (
	// WorkloadA is YCSB-A: 50 % reads, 50 % updates.
	WorkloadA = Mix{ReadPct: 50, UpdatePct: 50}
	// WorkloadF is YCSB-F: 50 % reads, 50 % read-modify-writes.
	WorkloadF = Mix{ReadPct: 50, RMWPct: 50}
	// WorkloadWO is the paper's write-only workload: 100 % updates.
	WorkloadWO = Mix{UpdatePct: 100}
)

// MixName returns the paper's name for a known mix, or a literal rendering.
func MixName(m Mix) string {
	switch m {
	case WorkloadA:
		return "A"
	case WorkloadF:
		return "F"
	case WorkloadWO:
		return "WO"
	default:
		s := fmt.Sprintf("r%d/u%d/rmw%d", m.ReadPct, m.UpdatePct, m.RMWPct)
		if m.ScanPct > 0 {
			s += fmt.Sprintf("/scan%d", m.ScanPct)
		}
		if m.DeletePct > 0 {
			s += fmt.Sprintf("/del%d", m.DeletePct)
		}
		return s
	}
}

// Generator produces a deterministic operation stream.
type Generator struct {
	dist  Distribution
	sizer Sizer
	mix   Mix
	rng   *sim.RNG
}

// NewGenerator wires a distribution, sizer and mix to a seeded RNG stream.
func NewGenerator(dist Distribution, sizer Sizer, mix Mix, rng *sim.RNG) (*Generator, error) {
	if err := mix.Validate(); err != nil {
		return nil, err
	}
	return &Generator{dist: dist, sizer: sizer, mix: mix, rng: rng}, nil
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	key := g.dist.Next(g.rng)
	op := Op{Key: key, Size: g.sizer.SizeOf(key)}
	op.Kind, op.ScanLen = g.mix.Pick(g.rng)
	return op
}

// Pick draws an operation kind (and scan length, for scans) from the mix
// with one uniform draw — the kind-selection step shared by Generator and
// the open-loop arrival layer. Draw order matters for reproducibility:
// exactly one rng consumption per call.
func (m Mix) Pick(rng *sim.RNG) (OpKind, int) {
	r := rng.Intn(100)
	switch {
	case r < m.ReadPct:
		return OpRead, 0
	case r < m.ReadPct+m.UpdatePct:
		return OpUpdate, 0
	case r < m.ReadPct+m.UpdatePct+m.RMWPct:
		return OpReadModifyWrite, 0
	case r < m.ReadPct+m.UpdatePct+m.RMWPct+m.ScanPct:
		n := m.ScanLen
		if n <= 0 {
			n = 50 // YCSB-E's average scan length
		}
		return OpScan, n
	default:
		return OpDelete, 0
	}
}

// LoadOps returns the insert sequence that populates every key once, in key
// order — the load phase that precedes a YCSB run.
func LoadOps(keys int64, sizer Sizer) []Op {
	ops := make([]Op, keys)
	for k := int64(0); k < keys; k++ {
		ops[k] = Op{Kind: OpInsert, Key: k, Size: sizer.SizeOf(k)}
	}
	return ops
}
