// Package broker implements TACOMA's scheduling service (section 4 of the
// paper). Scheduling matches the needs of autonomous agents with the
// providers of services while respecting constraints imposed by autonomous
// site administrators.
//
// It follows the paper's agent structure:
//
//   - the broker agent keeps a database of service providers and acts as a
//     matchmaker, distributing requests by load and capacity;
//   - a monitor agent at each provider site reports the site's status to
//     the brokers;
//   - the courier agent (from package core) carries those reports.
//
// The paper's fourth agent, which issues tickets for access to a service,
// is left out: no caller needed it and no experiment claim rests on it.
//
// Brokers also protect agents whose names must stay secret: the broker
// queues meeting requests — an agent plus its briefcase, stored inside an
// ordinary folder, possible only because folders are uninterpreted and
// typeless — and the protected agent drains its queue through the broker.
package broker

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/vnet"
)

// Agent and folder names of the scheduling subsystem.
const (
	// AgBroker is the well-known matchmaker agent.
	AgBroker = "broker"
	// AgMonitor is the per-site status reporter.
	AgMonitor = "monitor"

	// OpFolder selects the broker operation: register, lookup, report,
	// place, gossip, protect, request, drain.
	OpFolder = "OP"
	// ServiceFolder names a service.
	ServiceFolder = "SERVICE"
	// ProviderFolder names a provider agent.
	ProviderFolder = "PROVIDER"
	// SiteFolder names a provider's site.
	SiteFolder = "SITE"
	// CapacityFolder carries a provider's capacity (integer ≥ 1).
	CapacityFolder = "CAPACITY"
	// LoadFolder carries a load report value.
	LoadFolder = "LOAD"
	// SeqFolder carries a report sequence number (freshness).
	SeqFolder = "SEQ"
	// ProvidersFolder returns matchmaking results.
	ProvidersFolder = "PROVIDERS"
	// ChosenFolder returns the placement decision.
	ChosenFolder = "CHOSEN"
	// TableFolder carries a gossiped provider table.
	TableFolder = "TABLE"
)

// Broker errors.
var (
	// ErrNoProvider is returned when no provider serves a service.
	ErrNoProvider = errors.New("broker: no provider for service")
	// ErrBadRequest is returned for malformed broker requests.
	ErrBadRequest = errors.New("broker: bad request")
)

// provider is one row of a broker's service database.
type provider struct {
	Service  string
	Site     string
	Agent    string
	Capacity int64
	Load     int64 // last reported load
	Seq      int64 // freshness of the report
	InFlight int64 // optimistic count of placements since the last report
}

// key identifies a provider row.
func (p *provider) key() string { return p.Service + "@" + p.Site + "/" + p.Agent }

// effectiveLoad is the broker's placement metric: reported load plus
// optimistic in-flight placements, normalized by capacity.
func (p *provider) effectiveLoad() float64 {
	return float64(p.Load+p.InFlight) / float64(p.Capacity)
}

// Broker is the matchmaker state behind the broker agent. One Broker may
// serve several sites' agents; brokers gossip tables among themselves so
// requests can be distributed on load and capacity, a problem the paper
// compares to wide-area routing.
type Broker struct {
	mu        sync.Mutex
	providers map[string]*provider
	protected map[string]string // alias -> real (secret) agent name
	queues    map[string][]string
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{
		providers: make(map[string]*provider),
		protected: make(map[string]string),
		queues:    make(map[string][]string),
	}
}

// Register adds or updates a provider row.
func (b *Broker) Register(service, site, agent string, capacity int64) {
	if capacity < 1 {
		capacity = 1
	}
	p := &provider{Service: service, Site: site, Agent: agent, Capacity: capacity}
	b.mu.Lock()
	if old, ok := b.providers[p.key()]; ok {
		p.Load, p.Seq, p.InFlight = old.Load, old.Seq, old.InFlight
	}
	b.providers[p.key()] = p
	b.mu.Unlock()
}

// Drop removes every provider row at a site — the matchmaker's reaction to
// a mesh death verdict or a graceful leave. A site that comes back
// re-registers (the mesh feeds Register on the alive transition), starting
// with a clean row.
func (b *Broker) Drop(site string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for k, p := range b.providers {
		if p.Site == site {
			delete(b.providers, k)
		}
	}
}

// Report records a load report for every provider at the given site if the
// sequence number is fresher than what the broker has.
func (b *Broker) Report(site string, load, seq int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range b.providers {
		if p.Site != site {
			continue
		}
		if seq > p.Seq {
			p.Load, p.Seq, p.InFlight = load, seq, 0
		}
	}
}

// Lookup returns the providers of a service sorted by effective load.
func (b *Broker) Lookup(service string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var rows []*provider
	for _, p := range b.providers {
		if p.Service == service {
			rows = append(rows, p)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		li, lj := rows[i].effectiveLoad(), rows[j].effectiveLoad()
		if li != lj {
			return li < lj
		}
		return rows[i].key() < rows[j].key()
	})
	out := make([]string, len(rows))
	for i, p := range rows {
		out[i] = p.Site + "/" + p.Agent
	}
	return out
}

// Place picks the least-loaded provider for a service and charges one
// optimistic in-flight unit to it, so bursts between monitor reports still
// spread across providers.
func (b *Broker) Place(service string) (site, agent string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var best *provider
	for _, p := range b.providers {
		if p.Service != service {
			continue
		}
		if best == nil || p.effectiveLoad() < best.effectiveLoad() ||
			(p.effectiveLoad() == best.effectiveLoad() && p.key() < best.key()) {
			best = p
		}
	}
	if best == nil {
		return "", "", fmt.Errorf("%w: %q", ErrNoProvider, service)
	}
	best.InFlight++
	return best.Site, best.Agent, nil
}

// Table serializes the provider database for gossip: one row per element.
func (b *Broker) Table() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	rows := make([]string, 0, len(b.providers))
	for _, p := range b.providers {
		rows = append(rows, strings.Join([]string{
			p.Service, p.Site, p.Agent,
			strconv.FormatInt(p.Capacity, 10),
			strconv.FormatInt(p.Load, 10),
			strconv.FormatInt(p.Seq, 10),
		}, "|"))
	}
	sort.Strings(rows)
	return rows
}

// MergeTable folds a gossiped table into the database, keeping the fresher
// report per provider — the anti-entropy step of the routing-like load
// dissemination the paper sketches.
func (b *Broker) MergeTable(rows []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, row := range rows {
		parts := strings.Split(row, "|")
		if len(parts) != 6 {
			return fmt.Errorf("%w: gossip row %q", ErrBadRequest, row)
		}
		capacity, err1 := strconv.ParseInt(parts[3], 10, 64)
		load, err2 := strconv.ParseInt(parts[4], 10, 64)
		seq, err3 := strconv.ParseInt(parts[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("%w: gossip row %q", ErrBadRequest, row)
		}
		if capacity < 1 {
			// A zero or negative gossiped capacity would make effectiveLoad
			// divide by zero (or invert the ordering); clamp like Register
			// does rather than poison placement.
			capacity = 1
		}
		in := &provider{
			Service: parts[0], Site: parts[1], Agent: parts[2],
			Capacity: capacity, Load: load, Seq: seq,
		}
		if old, ok := b.providers[in.key()]; !ok || in.Seq > old.Seq {
			b.providers[in.key()] = in
		}
	}
	return nil
}

// Protect hides a real agent name behind an alias; only the broker can
// reach the protected agent afterwards.
func (b *Broker) Protect(alias, real string) {
	b.mu.Lock()
	b.protected[alias] = real
	b.mu.Unlock()
}

// enqueue stores a meeting request for a protected alias. The element is an
// encoded briefcase: agents and folders nest freely.
func (b *Broker) enqueue(alias string, request string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.protected[alias]; !ok {
		return fmt.Errorf("%w: unknown protected alias %q", ErrBadRequest, alias)
	}
	b.queues[alias] = append(b.queues[alias], request)
	return nil
}

// drain removes and returns all queued requests for an alias, but only when
// the caller presents the real name — the shared secret between broker and
// protected agent.
func (b *Broker) drain(alias, real string) ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.protected[alias] != real {
		return nil, fmt.Errorf("%w: not the protected agent for %q", ErrBadRequest, alias)
	}
	q := b.queues[alias]
	b.queues[alias] = nil
	return q, nil
}

// Agent wraps the broker state as a meetable TACOMA agent. Operations are
// selected by the OP folder:
//
//	register: SERVICE, SITE, PROVIDER, CAPACITY
//	report:   SITE, LOAD, SEQ
//	lookup:   SERVICE -> PROVIDERS (site/agent, best first)
//	place:    SERVICE -> CHOSEN ("site agent")
//	gossip:   TABLE (rows in, merged; own table returned in TABLE)
//	protect:  SERVICE (alias), PROVIDER (real name)
//	request:  SERVICE (alias), REQUEST (encoded briefcase element)
//	drain:    SERVICE (alias), PROVIDER (real name) -> REQUESTS
type Agent struct{ B *Broker }

// RequestFolder and RequestsFolder carry protected-meeting payloads.
const (
	RequestFolder  = "REQUEST"
	RequestsFolder = "REQUESTS"
)

// Meet implements core.Agent.
func (a *Agent) Meet(mc *core.MeetContext, bc *folder.Briefcase) error {
	op, err := bc.GetString(OpFolder)
	if err != nil {
		return fmt.Errorf("%w: missing OP", ErrBadRequest)
	}
	switch op {
	case "register":
		service, site, agent, err := a.serviceSiteAgent(bc)
		if err != nil {
			return err
		}
		capacity := int64(1)
		if c, err := bc.GetString(CapacityFolder); err == nil {
			capacity, err = strconv.ParseInt(c, 10, 64)
			if err != nil {
				return fmt.Errorf("%w: capacity %q", ErrBadRequest, c)
			}
		}
		a.B.Register(service, site, agent, capacity)
		return nil
	case "report":
		site, err := bc.GetString(SiteFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SITE", ErrBadRequest)
		}
		load, err1 := strconv.ParseInt(first(bc, LoadFolder), 10, 64)
		seq, err2 := strconv.ParseInt(first(bc, SeqFolder), 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("%w: bad LOAD/SEQ", ErrBadRequest)
		}
		a.B.Report(site, load, seq)
		return nil
	case "lookup":
		service, err := bc.GetString(ServiceFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SERVICE", ErrBadRequest)
		}
		bc.Put(ProvidersFolder, folder.OfStrings(a.B.Lookup(service)...))
		return nil
	case "place":
		service, err := bc.GetString(ServiceFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SERVICE", ErrBadRequest)
		}
		site, agent, err := a.B.Place(service)
		if err != nil {
			return err
		}
		bc.Put(ChosenFolder, folder.OfStrings(site, agent))
		return nil
	case "gossip":
		var incoming []string
		if tf, err := bc.Folder(TableFolder); err == nil {
			incoming = tf.Strings()
		}
		if err := a.B.MergeTable(incoming); err != nil {
			return err
		}
		bc.Put(TableFolder, folder.OfStrings(a.B.Table()...))
		return nil
	case "protect":
		alias, err := bc.GetString(ServiceFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SERVICE alias", ErrBadRequest)
		}
		real, err := bc.GetString(ProviderFolder)
		if err != nil {
			return fmt.Errorf("%w: missing PROVIDER", ErrBadRequest)
		}
		a.B.Protect(alias, real)
		return nil
	case "request":
		alias, err := bc.GetString(ServiceFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SERVICE alias", ErrBadRequest)
		}
		rf, err := bc.Folder(RequestFolder)
		if err != nil {
			return fmt.Errorf("%w: missing REQUEST", ErrBadRequest)
		}
		raw, err := rf.StringAt(0)
		if err != nil {
			return fmt.Errorf("%w: empty REQUEST", ErrBadRequest)
		}
		return a.B.enqueue(alias, raw)
	case "drain":
		alias, err := bc.GetString(ServiceFolder)
		if err != nil {
			return fmt.Errorf("%w: missing SERVICE alias", ErrBadRequest)
		}
		real, err := bc.GetString(ProviderFolder)
		if err != nil {
			return fmt.Errorf("%w: missing PROVIDER", ErrBadRequest)
		}
		reqs, err := a.B.drain(alias, real)
		if err != nil {
			return err
		}
		bc.Put(RequestsFolder, folder.OfStrings(reqs...))
		return nil
	default:
		return fmt.Errorf("%w: unknown op %q", ErrBadRequest, op)
	}
}

func (a *Agent) serviceSiteAgent(bc *folder.Briefcase) (service, site, agent string, err error) {
	if service, err = bc.GetString(ServiceFolder); err != nil {
		return "", "", "", fmt.Errorf("%w: missing SERVICE", ErrBadRequest)
	}
	if site, err = bc.GetString(SiteFolder); err != nil {
		return "", "", "", fmt.Errorf("%w: missing SITE", ErrBadRequest)
	}
	if agent, err = bc.GetString(ProviderFolder); err != nil {
		return "", "", "", fmt.Errorf("%w: missing PROVIDER", ErrBadRequest)
	}
	return service, site, agent, nil
}

func first(bc *folder.Briefcase, name string) string {
	s, _ := bc.GetString(name)
	return s
}

// Install registers a broker agent at a site and returns its state.
func Install(site *core.Site) *Broker {
	b := NewBroker()
	site.Register(AgBroker, &Agent{B: b})
	return b
}

// SiteAgent is the vnet.SiteID + agent pair produced by placement.
type SiteAgent struct {
	Site  vnet.SiteID
	Agent string
}
