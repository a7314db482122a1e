package core

import (
	"fmt"
	"time"

	"repro/internal/folder"
	"repro/internal/vnet"
)

// System is a set of TACOMA sites on one simulated network — the standard
// harness for tests, examples, and experiments. Topology helpers populate
// each site's site-local SITES folder, which is what the diffusion agent
// consults for neighbours.
type System struct {
	Net   *vnet.Network
	Sites map[vnet.SiteID]*Site
	order []vnet.SiteID
}

// SystemConfig configures a simulated system.
type SystemConfig struct {
	// Link is the default link parameter set for the network.
	Link vnet.LinkParams
	// Site is applied to every site.
	Site SiteConfig
	// Seed seeds network loss decisions and per-site RNGs.
	Seed int64
	// CallTimeout overrides the network's failure-detection timeout.
	CallTimeout time.Duration
}

// NewSystem creates n sites named "site-0" .. "site-(n-1)" on a fresh
// simulated network. No topology is installed; call FullMesh, Ring, Grid,
// or Connect.
func NewSystem(n int, cfg SystemConfig) *System {
	names := make([]vnet.SiteID, n)
	for i := range names {
		names[i] = vnet.SiteID(fmt.Sprintf("site-%d", i))
	}
	return NewNamedSystem(names, cfg)
}

// NewNamedSystem creates sites with explicit names.
func NewNamedSystem(names []vnet.SiteID, cfg SystemConfig) *System {
	opts := []vnet.Option{vnet.WithDefaults(cfg.Link), vnet.WithSeed(cfg.Seed)}
	if cfg.CallTimeout > 0 {
		opts = append(opts, vnet.WithCallTimeout(cfg.CallTimeout))
	}
	sys := &System{
		Net:   vnet.NewNetwork(opts...),
		Sites: make(map[vnet.SiteID]*Site, len(names)),
	}
	for i, name := range names {
		sc := cfg.Site
		sc.Seed = cfg.Seed + int64(i)
		sys.Sites[name] = NewSite(sys.Net.AddNode(name), sc)
		sys.order = append(sys.order, name)
	}
	return sys
}

// Site returns the site with the given name, or nil.
func (sys *System) Site(id vnet.SiteID) *Site { return sys.Sites[id] }

// SiteAt returns the i'th site in creation order.
func (sys *System) SiteAt(i int) *Site { return sys.Sites[sys.order[i]] }

// Names returns site names in creation order.
func (sys *System) Names() []vnet.SiteID {
	out := make([]vnet.SiteID, len(sys.order))
	copy(out, sys.order)
	return out
}

// Len reports the number of sites.
func (sys *System) Len() int { return len(sys.order) }

// Connect records a bidirectional neighbour relation in both sites'
// site-local SITES folders. It does not alter link parameters: the
// simulated network is fully connected at the transport level, and SITES
// defines the topology agents see — exactly the split the paper implies
// between the physical LAN and the agents' logical itineraries.
func (sys *System) Connect(a, b vnet.SiteID) {
	sa, sb := sys.Sites[a], sys.Sites[b]
	if sa == nil || sb == nil {
		return
	}
	sa.Cabinet().TestAndAppendString(folder.SitesFolder, string(b))
	sb.Cabinet().TestAndAppendString(folder.SitesFolder, string(a))
}

// FullMesh makes every site a neighbour of every other.
func (sys *System) FullMesh() {
	for i, a := range sys.order {
		for _, b := range sys.order[i+1:] {
			sys.Connect(a, b)
		}
	}
}

// Ring connects the sites in a cycle (the paper's cyclic-itinerary case).
func (sys *System) Ring() {
	n := len(sys.order)
	for i := 0; i < n; i++ {
		sys.Connect(sys.order[i], sys.order[(i+1)%n])
	}
}

// Grid connects the sites as a w×h mesh; len(sites) must be w*h.
func (sys *System) Grid(w, h int) error {
	if w*h != len(sys.order) {
		return fmt.Errorf("core: grid %dx%d needs %d sites, have %d", w, h, w*h, len(sys.order))
	}
	at := func(x, y int) vnet.SiteID { return sys.order[y*w+x] }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				sys.Connect(at(x, y), at(x+1, y))
			}
			if y+1 < h {
				sys.Connect(at(x, y), at(x, y+1))
			}
		}
	}
	return nil
}

// Wait quiesces all background work across the system. Work at one site
// starts work at others (a detached ship), also at a site already
// quiesced, so it repeats until two passes find every site idle with no
// work admitted in between: then all sites were idle at once, between the
// passes.
func (sys *System) Wait() {
	last := int64(-1)
	for {
		var admitted int64
		for _, id := range sys.order {
			admitted += sys.Sites[id].sched.Quiesce()
		}
		if admitted == last {
			return
		}
		last = admitted
	}
}

// Register installs an agent under the same name on every site.
func (sys *System) Register(name string, mk func(s *Site) Agent) {
	for _, id := range sys.order {
		sys.Sites[id].Register(name, mk(sys.Sites[id]))
	}
}

// TotalActivations sums meets served across all sites — the agent
// population measure used by the flooding experiment.
func (sys *System) TotalActivations() int64 {
	var total int64
	for _, id := range sys.order {
		total += sys.Sites[id].Activations()
	}
	return total
}
