package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"time"
)

// percentile picks the p-th percentile (0 < p <= 1) of an ascending
// slice by nearest rank: the smallest element with at least p of the
// sample at or below it. Samples beyond it: len − rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 0.99 × 4000 = 3960.0000000000005 from ranking 3961.
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) —
// the benchmark driver measures spread with exactly that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// digester hashes (i, Value bits, Interval bits, Stages, Blocks,
// Elapsed ns, Overspent) of a sequence of answers with SHA-256: two
// runs of the same queries agree on every simulated-clock number iff
// their digests agree. Host timings are deliberately not hashed.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) add(idx int, o outcome) {
	var buf [49]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(idx))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(o.value))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(o.interval))
	binary.LittleEndian.PutUint64(buf[24:], uint64(o.stages))
	binary.LittleEndian.PutUint64(buf[32:], uint64(o.blocks))
	binary.LittleEndian.PutUint64(buf[40:], uint64(o.elapsed))
	if o.overspent {
		buf[48] = 1
	}
	d.h.Write(buf[:])
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// resultDigest digests the answers of queries first, first+1, ...
func resultDigest(first int, outs []outcome) string {
	d := newDigester()
	for j := range outs {
		d.add(first+j, outs[j])
	}
	return d.sum()
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
