package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/broker"
)

// E7: "Brokers are expected to communicate among themselves and with the
// service providers, so that requests can be distributed amongst service
// providers based on load and capacity." (§4)
//
// J jobs of varying duration are placed on providers with skewed
// capacities. We compare broker placement (fed by monitor reports of
// queue length) against random placement, and ablate the monitor report
// staleness: reports every k placements. Queues drain at `capacity` units
// per placement tick, so the imbalance metric is the peak backlog relative
// to a perfectly balanced schedule.

// E7Row is one scheduling measurement.
type E7Row struct {
	Imbalance float64 // peak weighted backlog over ideal (1.0 = perfect)
}

// e7Sim is a small discrete-time queueing simulation: one job arrives per
// tick, every provider drains capacity units per tick.
type e7Sim struct {
	caps   []int64
	queues []int64
	peak   float64
}

func newE7Sim(caps []int64) *e7Sim {
	return &e7Sim{caps: caps, queues: make([]int64, len(caps))}
}

func (s *e7Sim) place(provider int, work int64) {
	s.queues[provider] += work
	// Track the worst capacity-weighted backlog.
	worst := 0.0
	for i, q := range s.queues {
		if w := float64(q) / float64(s.caps[i]); w > worst {
			worst = w
		}
	}
	if worst > s.peak {
		s.peak = worst
	}
	for i := range s.queues {
		s.queues[i] -= s.caps[i]
		if s.queues[i] < 0 {
			s.queues[i] = 0
		}
	}
}

// idealPeak estimates the best achievable capacity-weighted backlog for
// the same arrival sequence: work spread exactly in proportion to
// capacity.
func idealPeak(caps []int64, work []int64) float64 {
	var totalCap int64
	for _, c := range caps {
		totalCap += c
	}
	var backlog int64
	peak := 0.0
	for _, w := range work {
		backlog += w
		if b := float64(backlog) / float64(totalCap); b > peak {
			peak = b
		}
		backlog -= totalCap
		if backlog < 0 {
			backlog = 0
		}
	}
	return peak
}

// E7Placement runs J jobs through a placement policy.
// Policies: "broker" (load reports every k placements), "random",
// "round-robin".
func E7Placement(policy string, jobs int, caps []int64, stalenessK int, seed int64) (E7Row, error) {
	rng := rand.New(rand.NewSource(seed))
	sim := newE7Sim(caps)
	b := broker.NewBroker()
	for i, c := range caps {
		b.Register("compute", fmt.Sprintf("s%d", i), "worker", c)
	}
	report := func(seq int64) {
		for i, q := range sim.queues {
			b.Report(fmt.Sprintf("s%d", i), q, seq)
		}
	}
	report(1)

	work := make([]int64, jobs)
	for i := range work {
		work[i] = 1 + rng.Int63n(9) // job durations 1..9
	}

	var row E7Row
	for j := 0; j < jobs; j++ {
		var chosen int
		switch policy {
		case "broker":
			site, _, err := b.Place("compute")
			if err != nil {
				return row, err
			}
			if _, err := fmt.Sscanf(site, "s%d", &chosen); err != nil {
				return row, fmt.Errorf("e7: bad site %q", site)
			}
		case "random":
			chosen = rng.Intn(len(caps))
		case "round-robin":
			chosen = j % len(caps)
		default:
			return row, fmt.Errorf("e7: unknown policy %q", policy)
		}
		sim.place(chosen, work[j])
		if policy == "broker" && stalenessK > 0 && (j+1)%stalenessK == 0 {
			report(int64(j + 2))
		}
	}

	ideal := idealPeak(caps, work)
	if ideal == 0 {
		ideal = 1
	}
	row.Imbalance = sim.peak / ideal
	return row, nil
}
