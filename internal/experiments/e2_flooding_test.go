package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/folder"
)

// E2: "One implementation would have each agent deliver the message and
// then create a clone of itself at every adjacent site. Unfortunately,
// here the number of agents increases without bound. If, instead, an agent
// also records its visit in a site-local folder, then an agent can simply
// terminate — rather than clone — when it finds itself at a site that has
// already been visited." (§2)
//
// We flood a ring and measure agent activations: the naive variant grows
// exponentially in its TTL (and would never terminate without one); the
// marking variant and the diffusion system agent stay linear in the number
// of sites.

// E2Row is one flooding measurement.
type E2Row struct {
	Activations int64
	Delivered   int
	Duplicates  int
	Bytes       int64
}

// naive flooding: clone to every neighbour unconditionally, TTL-bounded.
const e2Naive = `
	cab_append DELIVERED msg
	set ttl [bc_pop TTL]
	if {$ttl > 0} {
		foreach n [neighbors] {
			bc_push TTL [expr {$ttl - 1}]
			spawn $n
			bc_pop TTL
		}
	}
`

// marking flood: record the visit site-locally, terminate when seen.
const e2Marking = `
	if {[cab_visit VISITED msg]} {
		cab_append DELIVERED msg
		foreach n [neighbors] {
			spawn $n
		}
	}
`

// briefcase-visited flood: the E2 ablation. The visited set travels in the
// briefcase instead of being recorded site-locally. It terminates on a
// ring (each branch stops when its own set covers the cycle) but the set
// bloats every message and concurrent branches cannot see each other's
// visits, so sites are delivered to more than once.
const e2Briefcase = `
	set me [host]
	set seen [bc_list VISITED]
	if {[lsearch $seen $me] < 0} {
		bc_push VISITED $me
		cab_append DELIVERED msg
		foreach n [neighbors] {
			if {[lsearch [bc_list VISITED] $n] < 0} {
				spawn $n
			}
		}
	}
`

func buildTopology(sys *core.System, topology string) error {
	switch topology {
	case "ring":
		sys.Ring()
	case "mesh":
		sys.FullMesh()
	case "grid":
		// Caller must pass a square count.
		n := sys.Len()
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return fmt.Errorf("e2: grid needs a square site count, got %d", n)
		}
		return sys.Grid(side, side)
	default:
		return fmt.Errorf("e2: unknown topology %q", topology)
	}
	return nil
}

// E2Flood runs one flooding variant and reports population and coverage.
func E2Flood(ctx context.Context, variant, topology string, sites, ttl int) (E2Row, error) {
	sys := core.NewSystem(sites, core.SystemConfig{Seed: 2})
	if err := buildTopology(sys, topology); err != nil {
		return E2Row{}, err
	}
	var row E2Row

	switch variant {
	case "naive", "marking", "briefcase":
		script := map[string]string{
			"naive": e2Naive, "marking": e2Marking, "briefcase": e2Briefcase,
		}[variant]
		bc := folder.NewBriefcase()
		if variant == "naive" {
			bc.PutString("TTL", fmt.Sprint(ttl))
		}
		if _, err := core.RunScript(ctx, sys.SiteAt(0), script, bc); err != nil {
			return row, err
		}
	case "diffusion":
		bc := folder.NewBriefcase()
		sys.Register("deliver", func(s *core.Site) core.Agent {
			return core.AgentFunc(func(mc *core.MeetContext, bc *folder.Briefcase) error {
				mc.Site.Cabinet().AppendString("DELIVERED", "msg")
				return nil
			})
		})
		bc.PutString(folder.ContactFolder, "deliver")
		if err := sys.SiteAt(0).MeetClient(ctx, core.AgDiffusion, bc); err != nil {
			return row, err
		}
	default:
		return row, fmt.Errorf("e2: unknown variant %q", variant)
	}
	sys.Wait()

	row.Activations = sys.TotalActivations()
	row.Bytes = sys.Net.Stats().BytesTotal
	for i := 0; i < sys.Len(); i++ {
		d := sys.SiteAt(i).Cabinet().FolderLen("DELIVERED")
		if d > 0 {
			row.Delivered++
		}
		if d > 1 {
			row.Duplicates += d - 1
		}
	}
	return row, nil
}
