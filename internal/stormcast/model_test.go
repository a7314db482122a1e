package stormcast

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
)

var sinkObs Observation

func TestObserveAllocatesNothing(t *testing.T) {
	m := DefaultModel(3, 3, 1995)
	if n := testing.AllocsPerRun(1000, func() { sinkObs = m.Observe("site-1", 1, 2, 7) }); n != 0 {
		t.Fatalf("Observe allocates %v times per reading, want 0", n)
	}
}

// TestNoiseStatistics checks that the keyed deviates Observe scales into
// every reading are unit normals, independent across channels and along
// time. They are read from noise directly: the storm signal is added on
// top of them, not mixed in.
func TestNoiseStatistics(t *testing.T) {
	m := DefaultModel(8, 8, 2024)
	const nx, ny, nt = 8, 8, 512 // 32,768 keys
	var ch [3][nx * ny][nt]float64
	for x := 0; x < nx; x++ {
		for y := 0; y < ny; y++ {
			for u := 0; u < nt; u++ {
				a, b, c := m.noise(x, y, u)
				k := x*ny + y
				ch[0][k][u], ch[1][k][u], ch[2][k][u] = a, b, c
			}
		}
	}
	const n = nx * ny * nt
	var mean [3]float64
	for i := range ch {
		var sum, sq, lag float64
		for k := range ch[i] {
			for u, v := range ch[i][k] {
				sum += v
				sq += v * v
				if u > 0 {
					lag += v * ch[i][k][u-1]
				}
			}
		}
		mean[i] = sum / n
		sd := math.Sqrt(sq/n - mean[i]*mean[i])
		// Means are within a few hundredths of zero, so the raw lag-1 product
		// is the correlation to well under the bound.
		corr := lag / float64(nx*ny*(nt-1)) / (sd * sd)
		t.Logf("channel %d: mean %.4f sd %.4f lag-1 corr %.4f", i, mean[i], sd, corr)
		if math.Abs(mean[i]) > 0.05 {
			t.Errorf("channel %d: mean %.4f, want within ±0.05 of 0", i, mean[i])
		}
		if sd < 0.95 || sd > 1.05 {
			t.Errorf("channel %d: sd %.4f, want within [0.95, 1.05]", i, sd)
		}
		if math.Abs(corr) >= 0.05 {
			t.Errorf("channel %d: lag-1 correlation along t %.4f, want below 0.05", i, corr)
		}
	}
	for i := 0; i < 3; i++ {
		j := (i + 1) % 3
		var cross float64
		for k := range ch[i] {
			for u := range ch[i][k] {
				cross += ch[i][k][u] * ch[j][k][u]
			}
		}
		if r := cross / n; math.Abs(r) >= 0.05 {
			t.Errorf("channels %d and %d correlate %.4f, want below 0.05", i, j, r)
		}
	}
}

// modelForecast is the forecast both RoamingForecast and CentralForecast
// compute (TestRoamingEqualsCentralForecast pins that), taken straight from
// the model without a network.
func modelForecast(m Model, e Expert, t, window int) Forecast {
	var sums []Summary
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var win []Observation
			for u := t - window + 1; u <= t; u++ {
				if u >= 0 {
					win = append(win, m.Observe("s", x, y, u))
				}
			}
			sums = append(sums, Summarize("s", x, y, win))
		}
	}
	return e.Predict(t, sums)
}

// TestAccuracyAcrossSeeds is the benchmark's stormcast shape — a 3×3 field,
// window 6, forecasts for t in [0, 24) — over a range of seeds around the
// benchmark's default (1995): every seed must clear the benchmark's 0.75
// accuracy floor, so no seed a run draws can fail its verifier. Sixteen
// seeds go through deployed fields and the roaming collector; the wider
// range is scored from the model directly.
func TestAccuracyAcrossSeeds(t *testing.T) {
	const floor, w, window, steps = 0.75, 3, 6, 24
	e := DefaultExpert()
	for seed := int64(1995); seed < 1995+16; seed++ {
		f := NewField(w, w, seed, core.SystemConfig{CallTimeout: 50 * time.Millisecond})
		acc, err := f.Accuracy(context.Background(), 0, steps, window, e, RoamingForecast)
		f.Sys.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if acc < floor {
			t.Errorf("seed %d: roaming accuracy %.3f, want at least %.2f", seed, acc, floor)
		}
	}
	step := int64(1)
	if testing.Short() {
		step = 16
	}
	worst, worstSeed := 1.0, int64(0)
	for seed := int64(1900); seed < 2700; seed += step {
		m := DefaultModel(w, w, seed)
		hit := 0
		for u := 0; u < steps; u++ {
			if modelForecast(m, e, u, window).Storm == m.StormInWindow(u, window) {
				hit++
			}
		}
		if acc := float64(hit) / steps; acc < worst {
			worst, worstSeed = acc, seed
		}
	}
	t.Logf("worst model accuracy %.3f at seed %d", worst, worstSeed)
	if worst < floor {
		t.Errorf("seed %d: accuracy %.3f, want at least %.2f", worstSeed, worst, floor)
	}
}
