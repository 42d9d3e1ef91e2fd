package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64-seeded xoshiro256**). Every synthetic workload in the
// reproduction derives from an RNG with a fixed seed so that all tables and
// figures are exactly reproducible run to run.
type RNG struct {
	s [4]uint64
	// cached spare Gaussian deviate for the Box-Muller polar method
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state (cannot occur with SplitMix64, but be safe).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// FillGaussian fills t with N(0, sigma^2) deviates.
func FillGaussian(t *Tensor, r *RNG, sigma float64) {
	d := t.Data()
	for i := range d {
		d[i] = float32(r.NormFloat64() * sigma)
	}
}

// FillUniform fills t with uniform deviates in [lo, hi).
func FillUniform(t *Tensor, r *RNG, lo, hi float64) {
	d := t.Data()
	for i := range d {
		d[i] = float32(lo + r.Float64()*(hi-lo))
	}
}

// KaimingStd returns the He/Kaiming initialization standard deviation for a
// layer with the given fan-in: sqrt(2/fanIn).
func KaimingStd(fanIn int) float64 {
	if fanIn <= 0 {
		return 1
	}
	return math.Sqrt(2 / float64(fanIn))
}
