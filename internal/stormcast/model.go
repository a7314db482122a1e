// Package stormcast reimplements the paper's first evaluation application:
// StormCast, "a set of expert systems to predict severe storms in the
// Arctic based on weather data obtained from a distributed network of
// sensors" [J93]. The original used real Arctic sensor feeds; this
// reproduction substitutes a synthetic weather model — a parameterised
// storm front sweeping across a sensor grid — which exercises the same
// code path the paper's bandwidth argument depends on: prediction agents
// visit sensor sites, reduce raw observations to summaries locally, and
// carry only the relevant information across the network.
package stormcast

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
)

// Observation is one sensor reading.
type Observation struct {
	Site     string
	X, Y     int
	T        int     // timestep
	Pressure float64 // hPa
	Wind     float64 // m/s
	Temp     float64 // °C
}

// Encode renders the observation as a folder element (fixed field order).
func (o Observation) Encode() string {
	return strings.Join([]string{
		o.Site,
		strconv.Itoa(o.X), strconv.Itoa(o.Y), strconv.Itoa(o.T),
		strconv.FormatFloat(o.Pressure, 'f', 2, 64),
		strconv.FormatFloat(o.Wind, 'f', 2, 64),
		strconv.FormatFloat(o.Temp, 'f', 2, 64),
	}, ",")
}

// ParseObservation decodes a folder element.
func ParseObservation(s string) (Observation, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 7 {
		return Observation{}, fmt.Errorf("stormcast: malformed observation %q", s)
	}
	var o Observation
	var err error
	o.Site = parts[0]
	if o.X, err = strconv.Atoi(parts[1]); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad X in %q", s)
	}
	if o.Y, err = strconv.Atoi(parts[2]); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad Y in %q", s)
	}
	if o.T, err = strconv.Atoi(parts[3]); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad T in %q", s)
	}
	if o.Pressure, err = strconv.ParseFloat(parts[4], 64); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad pressure in %q", s)
	}
	if o.Wind, err = strconv.ParseFloat(parts[5], 64); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad wind in %q", s)
	}
	if o.Temp, err = strconv.ParseFloat(parts[6], 64); err != nil {
		return Observation{}, fmt.Errorf("stormcast: bad temp in %q", s)
	}
	return o, nil
}

// Model is the synthetic Arctic weather field: a low-pressure storm front
// moving in a straight line across a W×H sensor grid, plus seeded noise.
// All values derive deterministically from (x, y, t, seed), so sites can
// generate their own observations independently and tests are exactly
// reproducible.
type Model struct {
	W, H int
	// Front trajectory: position at time t is (X0+VX*t, Y0+VY*t).
	X0, Y0 float64
	VX, VY float64
	// Radius is the storm's spatial extent (Gaussian sigma, grid units).
	Radius float64
	// Depth is the central pressure drop in hPa.
	Depth float64
	// MaxWind is the peak wind added near the centre, m/s.
	MaxWind float64
	// Seed drives observation noise.
	Seed int64
}

// DefaultModel is the storm used by tests, examples, and experiments: a
// front entering a 4×4 grid from the northwest and crossing it in ~12
// steps.
func DefaultModel(w, h int, seed int64) Model {
	return Model{
		W: w, H: h,
		X0: -2, Y0: -2,
		VX: 0.5, VY: 0.5,
		Radius:  1.8,
		Depth:   45,
		MaxWind: 30,
		Seed:    seed,
	}
}

// front returns the storm centre at time t.
func (m Model) front(t int) (cx, cy float64) {
	return m.X0 + m.VX*float64(t), m.Y0 + m.VY*float64(t)
}

// intensity is the storm's normalized influence at (x,y,t) in (0,1].
func (m Model) intensity(x, y, t int) float64 {
	cx, cy := m.front(t)
	dx, dy := float64(x)-cx, float64(y)-cy
	d2 := dx*dx + dy*dy
	return math.Exp(-d2 / (2 * m.Radius * m.Radius))
}

// Observe generates the sensor reading at grid position (x,y), time t.
func (m Model) Observe(site string, x, y, t int) Observation {
	inten := m.intensity(x, y, t)
	np, nw, nt := m.noise(x, y, t)
	return Observation{
		Site: site, X: x, Y: y, T: t,
		Pressure: 1013 - m.Depth*inten + np*1.5,
		Wind:     5 + m.MaxWind*inten + math.Abs(nw)*1.2,
		Temp:     -12 + 4*inten + nt*0.8,
	}
}

// noise returns three independent standard normal deviates keyed by
// (Seed, x, y, t), so repeated calls agree and no state is shared between
// readings. A PCG stream seeded with the key feeds Box–Muller; the
// generator lives on the stack, so a reading allocates nothing.
func (m Model) noise(x, y, t int) (a, b, c float64) {
	var src rand.PCG
	src.Seed(uint64(m.Seed), uint64(x)<<40^uint64(y)<<20^uint64(t))
	a, b = boxMuller(&src)
	c, _ = boxMuller(&src)
	return a, b, c
}

// boxMuller turns two uniform draws into two independent standard normals.
func boxMuller(src *rand.PCG) (float64, float64) {
	u1 := float64(src.Uint64()>>11+1) / (1 << 53) // (0, 1]: Log stays finite
	u2 := float64(src.Uint64()>>11) / (1 << 53)
	r := math.Sqrt(-2 * math.Log(u1))
	sin, cos := math.Sincos(2 * math.Pi * u2)
	return r * cos, r * sin
}

// StormAt reports ground truth: whether the storm meaningfully affects
// grid cell (x,y) at time t. This is what forecasts are scored against.
func (m Model) StormAt(x, y, t int) bool {
	return m.intensity(x, y, t) > 0.45
}

// StormAnywhere reports whether any grid cell is under the storm at t.
func (m Model) StormAnywhere(t int) bool {
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.StormAt(x, y, t) {
				return true
			}
		}
	}
	return false
}

// StormInWindow reports whether the storm touched the grid at any point in
// the observation window [t-n+1, t]. Forecasts built from window features
// (minimum pressure, maximum wind) are scored against this, since that is
// exactly the period the features describe.
func (m Model) StormInWindow(t, n int) bool {
	for i := t - n + 1; i <= t; i++ {
		if i >= 0 && m.StormAnywhere(i) {
			return true
		}
	}
	return false
}
