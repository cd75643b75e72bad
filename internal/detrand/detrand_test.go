package detrand

import (
	"fmt"
	"testing"

	"afterimage/internal/stats"
)

// chi2Crit is the 0.999 quantile of the chi-square distribution with 19
// degrees of freedom (20 bins).
const chi2Crit = 43.82

// chiSquare bins count draws into 20 equal-width bins over [0, 1) and
// returns Pearson's chi-square statistic against the uniform expectation.
func chiSquare(t *testing.T, count int, draw func(i int) float64) float64 {
	t.Helper()
	var bins [20]int
	for i := 0; i < count; i++ {
		u := draw(i)
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d = %v outside [0, 1)", i, u)
		}
		bins[int(u*20)]++
	}
	want := float64(count) / 20
	var chi float64
	for _, o := range bins {
		d := float64(o) - want
		chi += d * d / want
	}
	return chi
}

// TestUniformDistribution: sweeping any one input — the slot counter, the
// seed, a job key or a file path — yields draws uniform over [0, 1), and two
// salts of the same slot (the drop and delay decisions of one request) are
// uncorrelated.
func TestUniformDistribution(t *testing.T) {
	const count = 20000
	sweeps := map[string]func(i int) float64{
		"n":    func(i int) float64 { return Uniform(1, uint64(i), "127.0.0.1:8081", "drop") },
		"seed": func(i int) float64 { return Uniform(int64(i), 0, "127.0.0.1:8081", "drop") },
		"key":  func(i int) float64 { return Uniform(1, 2, fmt.Sprintf("campaign-%d/point-3", i)) },
		"path": func(i int) float64 { return Uniform(7, 3, fmt.Sprintf("store/%04d.json", i), "eio") },
	}
	for name, draw := range sweeps {
		chi := chiSquare(t, count, draw)
		if chi > chi2Crit {
			t.Errorf("sweep over %s: chi-square %.1f exceeds %.2f", name, chi, chi2Crit)
		}
		t.Logf("sweep over %s: chi-square %.1f", name, chi)
	}

	drop, delay := make([]float64, count), make([]float64, count)
	for i := range drop {
		drop[i] = Uniform(1, uint64(i), "127.0.0.1:8081", "drop")
		delay[i] = Uniform(1, uint64(i), "127.0.0.1:8081", "delay")
	}
	r := stats.Pearson(drop, delay)
	if r < -0.05 || r > 0.05 {
		t.Errorf("drop/delay correlation %.4f, want |r| < 0.05", r)
	}
	t.Logf("drop/delay correlation %.4f", r)
}
