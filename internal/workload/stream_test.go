package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/checkin-kv/checkin/internal/sim"
)

// digest hashes vals, each as 8 little-endian bytes.
func digest(vals []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestKeyStreamPinned pins the exact key and operation streams at a fixed
// seed. Every simulated metric depends on them, so a change to the samplers
// (a precomputed constant, an inlined hash) must leave them bit-identical.
func TestKeyStreamPinned(t *testing.T) {
	const n = 100_000
	draw := func(next func(*sim.RNG) int64) []int64 {
		rng := sim.NewRNG(1)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = next(rng)
		}
		return vals
	}
	g, err := NewGenerator(NewZipfian(50_000, DefaultTheta), PatternP1,
		Mix{ReadPct: 40, UpdatePct: 20, RMWPct: 20, ScanPct: 10, DeletePct: 10}, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]int64, 0, 4*n)
	for i := 0; i < n; i++ {
		op := g.Next()
		ops = append(ops, op.Key, int64(op.Kind), int64(op.Size), int64(op.ScanLen))
	}
	for _, c := range []struct {
		name string
		vals []int64
		want uint64
	}{
		{"zipfian", draw(NewZipfian(50_000, DefaultTheta).Next), 0x35c6f57133b4169},
		{"uniform", draw(Uniform{Keys: 50_000}.Next), 0x9bba24bb294d3d8c},
		{"generator", ops, 0xae1db305416e1613},
	} {
		if got := digest(c.vals); got != c.want {
			t.Errorf("%s stream digest = %#x, want %#x", c.name, got, c.want)
		}
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(50_000, DefaultTheta)
	rng := sim.NewRNG(1)
	var sink int64
	for b.Loop() {
		sink += z.Next(rng)
	}
	_ = sink
}
