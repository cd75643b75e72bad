// Package detrand wraps math/rand sources with draw counting so RNG state
// becomes copyable and hashable. math/rand exposes no way to serialise a
// generator's position, but every generator here is (a) seeded from a known
// value and (b) consumed strictly sequentially, so its full state is (seed,
// number of draws): copying is reseeding and discarding that many draws.
// This is what lets a fork clone an RNG mid-stream and a state hash digest
// its position, keeping forked and replayed runs bit-identical.
//
// The wrapper is stream-identical to rand.New(rand.NewSource(seed)): it
// implements rand.Source64 and delegates both Int63 and Uint64 to the
// underlying runtime source, so swapping it in changes no simulated outcome.
//
// Uniform is the stateless counterpart for fault schedules and backoff
// jitter: a pure function of (seed, slot, key) that needs no stream at all.
package detrand

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math/rand"
)

// Source is a counting rand.Source64. Not safe for concurrent use — exactly
// like the rand.Rand values it backs.
type Source struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

// NewSource builds a counting source with the given seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

// New builds a rand.Rand backed by a counting source, returning both. The
// Rand's value stream is identical to rand.New(rand.NewSource(seed)).
//
// Callers must not use Rand.Read: it buffers bytes internally, which the
// (seed, draws) state does not capture. Every other Rand method consumes
// whole source draws and restores exactly.
func New(seed int64) (*rand.Rand, *Source) {
	s := NewSource(seed)
	return rand.New(s), s
}

// Int63 draws via the underlying source, counting the draw.
func (s *Source) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws via the underlying source, counting the draw.
func (s *Source) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed reseeds and resets the draw counter.
func (s *Source) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Draws reports how many values have been drawn since the last (re)seed —
// together with the seed, the source's complete serialisable state.
func (s *Source) Draws() uint64 { return s.draws }

// Clone returns an independent source at the same stream position: the
// same seed, fast-forwarded by the same number of draws on a separate
// underlying generator. The clone and the original produce identical
// subsequent streams without sharing state — the primitive every fork uses
// to make its copies RNG-independent.
func (s *Source) Clone() *Source {
	c := NewSource(s.seed)
	for c.draws < s.draws {
		c.Uint64()
	}
	return c
}

// Uniform maps (seed, n, parts) to [0, 1) with 2^-20 resolution: FNV-1a over
// little-endian seed, then n, then each part, finalized by Mix64, keeping
// the low 20 bits. It is a pure function, so a schedule keyed by it replays
// exactly; callers salt the parts per decision so draws for one slot are
// independent.
func Uniform(seed int64, n uint64, parts ...string) float64 {
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], n)
	h.Write(buf[:])
	for _, p := range parts {
		io.WriteString(h, p)
	}
	return float64(Mix64(h.Sum64())%(1<<20)) / float64(1<<20)
}

// Mix64 is murmur3's 64-bit finalizer. FNV-1a's multiply carries only
// upward, so the low bits of a raw digest depend only on the low bits of
// every input byte; inputs that differ in a counter or a port digit then
// land in clustered low bits. Mix64 folds the high bits back down.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
