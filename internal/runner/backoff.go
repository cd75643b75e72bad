package runner

import (
	"time"

	"afterimage/internal/detrand"
)

// Delay computes the backoff before re-running a job whose attempt (0-based)
// just failed: capped exponential growth from base, scaled by a
// deterministic jitter in [0.5, 1.0) drawn from (seed, key, attempt). Equal
// inputs always produce the same delay, so a replayed campaign waits — and
// therefore logs and meters — identically; distinct jobs retrying after the
// same fault storm still decorrelate.
func Delay(base, max time.Duration, seed int64, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return time.Duration(float64(d) * jitter(seed, key, attempt))
}

// jitter maps (seed, key, attempt) to [0.5, 1.0).
func jitter(seed int64, key string, attempt int) float64 {
	return 0.5 + 0.5*detrand.Uniform(seed, uint64(attempt), key)
}
