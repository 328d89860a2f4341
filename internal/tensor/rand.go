package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*) used for
// weight initialisation and data synthesis. It is reproducible across runs
// and platforms, unlike math/rand's global state, which matters for
// regenerating the paper's tables bit-for-bit.
type RNG struct{ state uint64 }

// NewRNG seeds a generator. A zero seed is remapped to a fixed non-zero value
// because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent generator stream; used to give each synthetic
// subject / model its own reproducible randomness.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// XavierInit fills m with Xavier/Glorot-uniform values for a layer with the
// given fan-in and fan-out.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *RNG) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// HeInit fills m with He-normal values for ReLU-family layers.
func HeInit(m *Matrix, fanIn int, rng *RNG) {
	std := math.Sqrt(2.0 / float64(fanIn))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}
