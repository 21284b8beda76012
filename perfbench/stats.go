package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"afmm/internal/particle"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it: the sample at sorted index n-1-tailBeyond,
// named as the percentile (rank/n). ok is false when there are not enough
// samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// digest is an FNV-64a accumulator over exact bit patterns, used for the
// determinism checks: two runs agree only if every hashed value is ==.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) i64(v int64)   { d.u64(uint64(v)) }

// stateDigest hashes a system's positions, masses and forces plus the
// tree's node count.
func stateDigest(sys *particle.System, nodes int) uint64 {
	d := newDigest()
	for i := range sys.Pos {
		d.f64(sys.Pos[i].X)
		d.f64(sys.Pos[i].Y)
		d.f64(sys.Pos[i].Z)
		d.f64(sys.Mass[i])
		d.f64(sys.Aux[i].X)
		d.f64(sys.Aux[i].Y)
		d.f64(sys.Aux[i].Z)
		d.i64(int64(sys.Index[i]))
	}
	d.i64(int64(nodes))
	return d.h.Sum64()
}

// trajectoryDigest hashes everything a run must reproduce exactly under
// one seed: the virtual step times, LB times, the S trajectory, operation
// counts, and the dmem byte, message and frame counts.
func (o *runOut) trajectoryDigest() uint64 {
	d := newDigest()
	for i := range o.Virt {
		d.f64(o.Virt[i])
	}
	for i := range o.LB {
		d.f64(o.LB[i])
		d.f64(o.Compute[i])
	}
	for _, s := range o.S {
		d.i64(int64(s))
	}
	for _, c := range o.Counts {
		for _, v := range c {
			d.i64(v)
		}
	}
	for i := range o.Bytes {
		d.i64(o.Bytes[i])
		d.i64(o.Msgs[i])
		d.i64(o.Frames[i])
		d.f64(o.Imbalance[i])
	}
	d.i64(int64(o.Reparts))
	return d.h.Sum64()
}
