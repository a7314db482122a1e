package stormcast

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/folder"
)

// AgSensor is the per-site sensor agent name.
const AgSensor = "sensor"

// Sensor briefcase protocol folders.
const (
	// OpFolder selects "raw" (full observation window) or "summary"
	// (locally reduced features).
	OpFolder = "OP"
	// WindowFolder carries the requested window length in timesteps.
	WindowFolder = "WINDOW"
	// TimeFolder carries the current timestep.
	TimeFolder = "T"
	// ObsFolder returns raw observations, one element each.
	ObsFolder = "OBS"
	// SummaryFolder returns the local feature summary, one element.
	SummaryFolder = "SUMMARY"
)

// MaxWindow caps the WINDOW a sensor query may ask for. The length comes
// from the visiting briefcase and sizes the reading buffer, so an uncapped
// value lets any agent exhaust (or crash) the site.
const MaxWindow = 4096

// ErrBadWindow is returned (wrapped in the meet's error) for a WINDOW above
// MaxWindow.
var ErrBadWindow = errors.New("stormcast: window too large")

// Summary is the locally reduced feature vector an agent carries instead
// of raw data: this is the filtering step that conserves bandwidth.
type Summary struct {
	Site        string
	X, Y        int
	MinPressure float64
	MaxWind     float64
	Falling     bool // pressure falling across the window
}

// Encode renders the summary as a folder element.
func (s Summary) Encode() string {
	falling := "0"
	if s.Falling {
		falling = "1"
	}
	return strings.Join([]string{
		s.Site, strconv.Itoa(s.X), strconv.Itoa(s.Y),
		strconv.FormatFloat(s.MinPressure, 'f', 2, 64),
		strconv.FormatFloat(s.MaxWind, 'f', 2, 64),
		falling,
	}, ",")
}

// ParseSummary decodes a summary element.
func ParseSummary(raw string) (Summary, error) {
	parts := strings.Split(raw, ",")
	if len(parts) != 6 {
		return Summary{}, fmt.Errorf("stormcast: malformed summary %q", raw)
	}
	var s Summary
	var err error
	s.Site = parts[0]
	if s.X, err = strconv.Atoi(parts[1]); err != nil {
		return Summary{}, fmt.Errorf("stormcast: bad X in %q", raw)
	}
	if s.Y, err = strconv.Atoi(parts[2]); err != nil {
		return Summary{}, fmt.Errorf("stormcast: bad Y in %q", raw)
	}
	if s.MinPressure, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return Summary{}, fmt.Errorf("stormcast: bad pressure in %q", raw)
	}
	if s.MaxWind, err = strconv.ParseFloat(parts[4], 64); err != nil {
		return Summary{}, fmt.Errorf("stormcast: bad wind in %q", raw)
	}
	s.Falling = parts[5] == "1"
	return s, nil
}

// Sensor is one grid sensor bound to a site.
type Sensor struct {
	site  *core.Site
	model Model
	x, y  int
}

// InstallSensor registers the sensor agent for grid cell (x,y) at a site.
func InstallSensor(site *core.Site, model Model, x, y int) *Sensor {
	s := &Sensor{site: site, model: model, x: x, y: y}
	site.Register(AgSensor, core.AgentFunc(s.meet))
	return s
}

// window generates the observation window of n ≤ MaxWindow steps ending at
// time t; steps before 0 have no reading. Counting steps rather than
// comparing times keeps a t near the int range's edges from overflowing.
func (s *Sensor) window(t, n int) []Observation {
	if t < 0 {
		return nil
	}
	if t < n-1 {
		n = t + 1
	}
	out := make([]Observation, 0, n)
	for k := n - 1; k >= 0; k-- {
		out = append(out, s.model.Observe(string(s.site.ID()), s.x, s.y, t-k))
	}
	return out
}

// Summarize reduces an observation window to its features. Exported so
// the centralized (client-server) forecast can apply the identical
// reduction after pulling raw data: both strategies must produce the same
// forecast for the bandwidth comparison to be fair.
func Summarize(site string, x, y int, window []Observation) Summary {
	s := Summary{Site: site, X: x, Y: y, MinPressure: 1e9, MaxWind: -1}
	for _, o := range window {
		if o.Pressure < s.MinPressure {
			s.MinPressure = o.Pressure
		}
		if o.Wind > s.MaxWind {
			s.MaxWind = o.Wind
		}
	}
	if len(window) >= 2 {
		s.Falling = window[len(window)-1].Pressure < window[0].Pressure
	}
	return s
}

// meet serves sensor queries.
func (s *Sensor) meet(mc *core.MeetContext, bc *folder.Briefcase) error {
	op, err := bc.GetString(OpFolder)
	if err != nil {
		return fmt.Errorf("sensor: missing OP: %w", err)
	}
	tStr, err := bc.GetString(TimeFolder)
	if err != nil {
		return fmt.Errorf("sensor: missing T: %w", err)
	}
	t, err := strconv.Atoi(tStr)
	if err != nil {
		return fmt.Errorf("sensor: bad T %q", tStr)
	}
	n := 6
	if w, err := bc.GetString(WindowFolder); err == nil {
		if v, err := strconv.Atoi(w); err == nil && v > 0 {
			n = v
		}
	}
	if n > MaxWindow {
		return fmt.Errorf("sensor: %w: %d > %d", ErrBadWindow, n, MaxWindow)
	}
	window := s.window(t, n)
	switch op {
	case "raw":
		obs := folder.New()
		for _, o := range window {
			obs.PushString(o.Encode())
		}
		bc.Put(ObsFolder, obs)
		return nil
	case "summary":
		sum := Summarize(string(s.site.ID()), s.x, s.y, window)
		bc.Ensure(SummaryFolder).PushString(sum.Encode())
		return nil
	default:
		return fmt.Errorf("sensor: unknown op %q", op)
	}
}
