package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/bits"
)

// The benchmark generates every input from its own code and the run's
// seed, so the inputs do not change when the store's internals do.

// rng is splitmix64: tiny, fast, allocation-free and stable across Go
// releases (math/rand's streams are not part of its compatibility promise).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) rng {
	r := rng{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 1}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Keys are a one-byte family prefix and a 15-digit zero-padded decimal id,
// so byte order is id order within a family.
const keyLen = 16

func putKey(dst []byte, family byte, id uint64) []byte {
	dst = dst[:keyLen]
	dst[0] = family
	for i := keyLen - 1; i >= 1; i-- {
		dst[i] = byte('0' + id%10)
		id /= 10
	}
	return dst
}

// keyID parses a key made by putKey; ok is false for any other shape.
func keyID(k []byte, family byte) (uint64, bool) {
	if len(k) != keyLen || k[0] != family {
		return 0, false
	}
	var id uint64
	for _, c := range k[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

// Values carry the id of their key, a version number and a checksum, so a
// value read back proves which key and which write it came from:
//
//	[0:8) key id  [8:16) version  [16:n-4) filler  [n-4:n) CRC-32C of [0:n-4)
const valueMin = 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func putValue(dst []byte, id, version uint64) []byte {
	binary.BigEndian.PutUint64(dst[0:8], id)
	binary.BigEndian.PutUint64(dst[8:16], version)
	f := id*0x9E3779B97F4A7C15 ^ version
	n := len(dst) - 4
	for i := 16; i < n; i += 8 {
		f ^= f << 13
		f ^= f >> 7
		f ^= f << 17
		if i+8 <= n {
			binary.LittleEndian.PutUint64(dst[i:], f)
		} else {
			for j := i; j < n; j++ {
				dst[j] = byte(f >> (8 * uint(j-i)))
			}
		}
	}
	binary.BigEndian.PutUint32(dst[n:], crc32.Checksum(dst[:n], castagnoli))
	return dst
}

// checkValue verifies v's checksum and that it belongs to key id, and
// returns the version it carries.
func checkValue(v []byte, id uint64, size int) (version uint64, ok bool) {
	if len(v) != size || size < valueMin {
		return 0, false
	}
	n := len(v) - 4
	if crc32.Checksum(v[:n], castagnoli) != binary.BigEndian.Uint32(v[n:]) {
		return 0, false
	}
	if binary.BigEndian.Uint64(v[0:8]) != id {
		return 0, false
	}
	return binary.BigEndian.Uint64(v[8:16]), true
}

// zipf draws ids in [0, n) with probability proportional to 1/(rank+1)^theta
// from a precomputed CDF (n is small in the workloads that use it).
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := float64(r.next()>>11) / (1 << 53)
	lo, hi := 0, len(z.cdf)-1 // the first i with cdf[i] > u; cdf[n-1] is 1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if z.cdf[m] <= u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
