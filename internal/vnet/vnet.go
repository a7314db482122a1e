// Package vnet provides the network substrate TACOMA sites run on.
//
// The paper's prototype ran on UNIX workstations connected by a LAN; here
// the default substrate is an in-process simulated network whose links have
// configurable latency, bandwidth, and loss, with exact byte accounting per
// link — the instrumentation the bandwidth-conservation experiments need.
// Sites can be crashed and restarted to drive the fault-tolerance
// experiments. A real TCP transport implementing the same Endpoint
// interface lives in tcp.go and backs cmd/tacomad.
//
// The simulator charges transfer cost (latency + bytes/bandwidth) to
// virtual-time counters instead of sleeping, so experiments measuring
// "network seconds" run in microseconds of wall time. Construct the network
// with RealTime() to make Call actually sleep for the simulated delay.
package vnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SiteID names a site on the network.
type SiteID string

// Errors returned by network operations.
var (
	ErrUnknownSite = errors.New("vnet: unknown site")
	ErrCrashed     = errors.New("vnet: site crashed")
	ErrTimeout     = errors.New("vnet: call timed out")
	ErrNoHandler   = errors.New("vnet: site has no handler")
	ErrClosed      = errors.New("vnet: endpoint closed")
)

// HandlerFunc serves an incoming call on a site; the returned bytes travel
// back to the caller. The TCP transport runs each request's handler on a
// goroutine of its own. The simulated Node runs it on the caller's
// goroutine when the call cannot be cancelled (its ctx.Done() is nil), and
// on a goroutine of its own otherwise, which outlives an abandoned call.
// A handler must not depend on which goroutine it runs on.
//
// Ownership: the payload belongs to the handler (it may alias it into
// long-lived structures); the returned bytes belong to the caller and must
// not be retained or reused by the handler after it returns.
type HandlerFunc func(from SiteID, kind string, payload []byte) ([]byte, error)

// Endpoint abstracts one site's attachment to a network. Both the simulated
// node and the TCP transport implement it, so the TACOMA kernel is
// transport-agnostic.
type Endpoint interface {
	// ID returns the site's name.
	ID() SiteID
	// Call sends a request to another site and waits for its reply.
	//
	// Ownership: the endpoint does not retain payload after Call returns
	// (callers may recycle the buffer), and the returned bytes belong to
	// the caller (they may be aliased by a zero-copy decode).
	Call(ctx context.Context, to SiteID, kind string, payload []byte) ([]byte, error)
	// SetHandler installs the function that serves incoming calls.
	SetHandler(h HandlerFunc)
	// Incarnation identifies this boot of the site: it changes whenever
	// the site restarts after a crash, so a peer comparing incarnations
	// across probes can tell "slow but alive" from "crashed and rebooted,
	// volatile state lost". Failure detectors (rear guards) rely on it.
	Incarnation() int64
	// Close detaches the endpoint.
	Close() error
}

// LinkParams model one directed link.
type LinkParams struct {
	// Latency is the propagation delay charged per message.
	Latency time.Duration
	// Bandwidth in bytes per second; 0 means infinite.
	Bandwidth int64
	// Loss is the probability in [0,1) that a message is dropped.
	Loss float64
}

// TransferTime returns the simulated time to move n bytes over the link.
func (p LinkParams) TransferTime(n int) time.Duration {
	d := p.Latency
	if p.Bandwidth > 0 {
		d += time.Duration(float64(n) / float64(p.Bandwidth) * float64(time.Second))
	}
	return d
}

type linkKey struct{ from, to SiteID }

// Faults injects adverse behavior on a directed link, layered on top of the
// link's base LinkParams. Where LinkParams model the physics of a healthy
// link (propagation delay, bandwidth, background loss), Faults model a
// misbehaving one: the chaos harness sets them per link to prove protocols
// survive drops, delays, and reordering — the takeover test kills a leader
// under these knobs. Partition/Heal remain the fourth knob: a 100% fault.
//
// Fault delays are wall-clock sleeps even on a virtual-time network:
// injection exists to perturb real goroutine interleavings, not to model
// transfer cost (which LinkParams already charge).
type Faults struct {
	// Drop is the probability in [0,1] that a message vanishes, on top of
	// the link's base Loss.
	Drop float64
	// Delay is a fixed extra hold applied to every message.
	Delay time.Duration
	// Jitter adds a uniform random hold in [0, Jitter) per message.
	Jitter time.Duration
	// Reorder is the probability a message is held until the next message
	// on the same link has been fully delivered, swapping their order. At
	// most one message per link is held at a time; a held message with no
	// successor is released after ReorderWindow.
	Reorder float64
	// ReorderWindow bounds how long a reorder-held message waits for a
	// successor; 0 means a 5ms default.
	ReorderWindow time.Duration
}

const defaultReorderWindow = 5 * time.Millisecond

// headerOverhead approximates per-message framing cost (ids, kind, lengths)
// so byte accounting is not flattered by tiny payloads.
const headerOverhead = 24

// Network is the simulated network. It is safe for concurrent use.
type Network struct {
	mu          sync.Mutex
	rng         *rand.Rand
	nodes       map[SiteID]*Node
	links       map[linkKey]LinkParams
	partitioned map[linkKey]bool
	faults      map[linkKey]Faults
	held        map[linkKey]chan struct{}
	defaults    LinkParams
	realTime    bool
	callTimeout time.Duration

	bytesTotal   atomic.Int64
	msgsTotal    atomic.Int64
	virtualNanos atomic.Int64
	bytesByLink  map[linkKey]*atomic.Int64
	bytesByKind  map[string]*atomic.Int64
}

// Option configures a Network.
type Option func(*Network)

// WithDefaults sets the link parameters used where SetLink was not called.
func WithDefaults(p LinkParams) Option { return func(n *Network) { n.defaults = p } }

// WithSeed seeds the simulator's randomness (loss decisions).
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// RealTime makes Call sleep for the simulated transfer time instead of only
// charging virtual-time counters.
func RealTime() Option { return func(n *Network) { n.realTime = true } }

// WithCallTimeout bounds how long Call waits for a reply when the callee has
// crashed. The default is 250ms.
func WithCallTimeout(d time.Duration) Option {
	return func(n *Network) { n.callTimeout = d }
}

// NewNetwork creates an empty simulated network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		rng:         rand.New(rand.NewSource(1)),
		nodes:       make(map[SiteID]*Node),
		links:       make(map[linkKey]LinkParams),
		partitioned: make(map[linkKey]bool),
		faults:      make(map[linkKey]Faults),
		held:        make(map[linkKey]chan struct{}),
		bytesByLink: make(map[linkKey]*atomic.Int64),
		bytesByKind: make(map[string]*atomic.Int64),
		callTimeout: 250 * time.Millisecond,
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// AddNode attaches a new site and returns its endpoint. Adding an existing
// site returns the existing node.
func (n *Network) AddNode(id SiteID) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if nd, ok := n.nodes[id]; ok {
		return nd
	}
	nd := &Node{id: id, net: n}
	n.nodes[id] = nd
	return nd
}

// Node returns the endpoint for id, or nil if absent.
func (n *Network) Node(id SiteID) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.nodes[id]
}

// Sites returns all site IDs in sorted order.
func (n *Network) Sites() []SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]SiteID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SetLink sets the parameters of the directed link a→b.
func (n *Network) SetLink(a, b SiteID, p LinkParams) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[linkKey{a, b}] = p
}

// SetBidirLink sets both directions of a link.
func (n *Network) SetBidirLink(a, b SiteID, p LinkParams) {
	n.SetLink(a, b, p)
	n.SetLink(b, a, p)
}

// SetFaults installs fault injection on the directed link a→b. A zero
// Faults value disables injection for the link.
func (n *Network) SetFaults(a, b SiteID, f Faults) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f == (Faults{}) {
		delete(n.faults, linkKey{a, b})
		return
	}
	n.faults[linkKey{a, b}] = f
}

// SetBidirFaults installs the same faults on both directions of a link.
func (n *Network) SetBidirFaults(a, b SiteID, f Faults) {
	n.SetFaults(a, b, f)
	n.SetFaults(b, a, f)
}

// ClearFaults removes all injected faults network-wide. Messages currently
// held for reordering drain on their window timer.
func (n *Network) ClearFaults() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = make(map[linkKey]Faults)
}

// applyFaults runs the injected-fault pipeline for one message direction.
// It returns dropped=true when the message must vanish. When release is
// non-nil, the caller owes a close(release) after this message's delivery
// completes — that wakes the reorder-held message it superseded, which is
// what actually swaps their order. A non-nil error is ctx expiring during
// an injected hold.
func (n *Network) applyFaults(ctx context.Context, from, to SiteID) (dropped bool, release chan struct{}, err error) {
	key := linkKey{from, to}
	n.mu.Lock()
	f, ok := n.faults[key]
	if !ok {
		n.mu.Unlock()
		return false, nil, nil
	}
	if f.Drop > 0 && n.rng.Float64() < f.Drop {
		n.mu.Unlock()
		return true, nil, nil
	}
	var jitter time.Duration
	if f.Jitter > 0 {
		jitter = time.Duration(n.rng.Int63n(int64(f.Jitter)))
	}
	reorder := f.Reorder > 0 && n.rng.Float64() < f.Reorder
	var wait chan struct{}
	if held := n.held[key]; held != nil {
		// A predecessor is parked on this link: we are its successor and
		// will release it after our own delivery, even if we too were
		// selected for reordering (at most one held message per link —
		// no chains, so injection can never wedge a link).
		release = held
		delete(n.held, key)
	} else if reorder {
		wait = make(chan struct{})
		n.held[key] = wait
	}
	n.mu.Unlock()

	if d := f.Delay + jitter; d > 0 {
		if err := sleepCtx(ctx, d); err != nil {
			n.unhold(key, wait)
			return false, release, err
		}
	}
	if wait != nil {
		window := f.ReorderWindow
		if window <= 0 {
			window = defaultReorderWindow
		}
		select {
		case <-wait:
		case <-time.After(window):
			n.unhold(key, wait)
		case <-ctx.Done():
			n.unhold(key, wait)
			return false, release, ctx.Err()
		}
	}
	return false, release, nil
}

// unhold retracts a reorder slot if it is still ours (a successor may have
// claimed it concurrently, in which case its close is a harmless wake).
func (n *Network) unhold(key linkKey, wait chan struct{}) {
	if wait == nil {
		return
	}
	n.mu.Lock()
	if n.held[key] == wait {
		delete(n.held, key)
	}
	n.mu.Unlock()
}

// Partition severs both directions between a and b until Heal is called.
func (n *Network) Partition(a, b SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[linkKey{a, b}] = true
	n.partitioned[linkKey{b, a}] = true
}

// Heal restores a previously partitioned pair.
func (n *Network) Heal(a, b SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitioned, linkKey{a, b})
	delete(n.partitioned, linkKey{b, a})
}

// Crash marks a site as failed: its handler stops being invoked and calls to
// it time out, exactly as a caller would observe a dead machine.
func (n *Network) Crash(id SiteID) error {
	nd := n.Node(id)
	if nd == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSite, id)
	}
	nd.crashed.Store(true)
	return nil
}

// Restart brings a crashed site back under a new incarnation. Its handler
// is preserved; site-level volatile state recovery is the kernel's concern,
// not the network's.
func (n *Network) Restart(id SiteID) error {
	nd := n.Node(id)
	if nd == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSite, id)
	}
	nd.incarnation.Add(1)
	nd.crashed.Store(false)
	return nil
}

// Crashed reports whether the site is currently down.
func (n *Network) Crashed(id SiteID) bool {
	nd := n.Node(id)
	return nd != nil && nd.crashed.Load()
}

func (n *Network) linkFor(a, b SiteID) (LinkParams, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned[linkKey{a, b}] {
		return LinkParams{}, false
	}
	if p, ok := n.links[linkKey{a, b}]; ok {
		return p, true
	}
	return n.defaults, true
}

func (n *Network) lossDrop(p float64) bool {
	if p <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64() < p
}

func (n *Network) chargeTransfer(from, to SiteID, kind string, bytes int, p LinkParams) {
	size := bytes + headerOverhead
	n.bytesTotal.Add(int64(size))
	n.msgsTotal.Add(1)
	n.virtualNanos.Add(int64(p.TransferTime(size)))
	key := linkKey{from, to}
	n.mu.Lock()
	ctr, ok := n.bytesByLink[key]
	if !ok {
		ctr = new(atomic.Int64)
		n.bytesByLink[key] = ctr
	}
	kctr, ok := n.bytesByKind[kind]
	if !ok {
		kctr = new(atomic.Int64)
		n.bytesByKind[kind] = kctr
	}
	n.mu.Unlock()
	ctr.Add(int64(size))
	kctr.Add(int64(size))
}

// Stats is a snapshot of global transfer counters.
type Stats struct {
	// BytesTotal counts every byte placed on any link, including framing.
	BytesTotal int64
	// Messages counts link-level messages (a call is two messages).
	Messages int64
	// VirtualTime is accumulated simulated transfer time across all
	// messages, i.e. serialized network seconds.
	VirtualTime time.Duration
}

// Stats returns the current global counters.
func (n *Network) Stats() Stats {
	return Stats{
		BytesTotal:  n.bytesTotal.Load(),
		Messages:    n.msgsTotal.Load(),
		VirtualTime: time.Duration(n.virtualNanos.Load()),
	}
}

// LinkBytes returns bytes carried on the directed link a→b.
func (n *Network) LinkBytes(a, b SiteID) int64 {
	n.mu.Lock()
	ctr := n.bytesByLink[linkKey{a, b}]
	n.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// KindBytes returns bytes carried by messages of one kind (both directions
// of every call with that request kind — replies are charged to the request's
// kind). The mesh tests use it to bound gossip overhead per protocol period.
func (n *Network) KindBytes(kind string) int64 {
	n.mu.Lock()
	ctr := n.bytesByKind[kind]
	n.mu.Unlock()
	if ctr == nil {
		return 0
	}
	return ctr.Load()
}

// ResetStats zeroes all byte/message/time counters.
func (n *Network) ResetStats() {
	n.bytesTotal.Store(0)
	n.msgsTotal.Store(0)
	n.virtualNanos.Store(0)
	n.mu.Lock()
	n.bytesByLink = make(map[linkKey]*atomic.Int64)
	n.bytesByKind = make(map[string]*atomic.Int64)
	n.mu.Unlock()
}

// Node is one site's attachment to the simulated network.
type Node struct {
	id          SiteID
	net         *Network
	crashed     atomic.Bool
	closed      atomic.Bool
	incarnation atomic.Int64

	hmu     sync.RWMutex
	handler HandlerFunc
}

var _ Endpoint = (*Node)(nil)

// ID returns the site name.
func (nd *Node) ID() SiteID { return nd.id }

// Incarnation returns the node's current boot number.
func (nd *Node) Incarnation() int64 { return nd.incarnation.Load() }

// SetHandler installs the serving function for incoming calls.
func (nd *Node) SetHandler(h HandlerFunc) {
	nd.hmu.Lock()
	nd.handler = h
	nd.hmu.Unlock()
}

// Close detaches the node; subsequent calls fail with ErrClosed.
func (nd *Node) Close() error {
	nd.closed.Store(true)
	return nil
}

// Call performs a synchronous request/response exchange with another site.
// Bytes are charged in both directions. A crashed or unreachable callee
// manifests as ErrTimeout after the network's call timeout — callers cannot
// distinguish a dead site from a slow one, which is what the rear-guard
// failure detector must cope with. With a ctx that cannot be cancelled the
// destination's handler runs inline on the calling goroutine; otherwise it
// runs on its own goroutine, and cancellation returns promptly while the
// handler finishes unobserved.
func (nd *Node) Call(ctx context.Context, to SiteID, kind string, payload []byte) ([]byte, error) {
	if nd.closed.Load() {
		return nil, ErrClosed
	}
	if nd.crashed.Load() {
		return nil, fmt.Errorf("%w: %s (caller)", ErrCrashed, nd.id)
	}
	dest := nd.net.Node(to)
	if dest == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	params, connected := nd.net.linkFor(nd.id, to)
	// The request leaves the caller regardless of what happens next: a
	// partitioned or crashed destination still costs the send on real
	// networks only up to the break, but charging the full message keeps
	// accounting simple and pessimistic for the agent side.
	nd.net.chargeTransfer(nd.id, to, kind, len(payload), params)

	// Context deadlines are handled by the ctx.Done cases below; timeout
	// only models the network-level "no reply" detection.
	timeout := nd.net.callTimeout
	if !connected || dest.crashed.Load() || nd.net.lossDrop(params.Loss) {
		return nil, awaitTimeout(ctx, timeout, to)
	}
	dropped, release, ferr := nd.net.applyFaults(ctx, nd.id, to)
	if release != nil {
		// The reorder-held predecessor on this link resumes only after our
		// delivery fully completes (including the reply), which is what
		// makes the swap deterministic.
		defer close(release)
	}
	if ferr != nil {
		return nil, ferr
	}
	if dropped {
		return nil, awaitTimeout(ctx, timeout, to)
	}

	dest.hmu.RLock()
	h := dest.handler
	dest.hmu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoHandler, to)
	}

	if nd.net.realTime {
		if err := sleepCtx(ctx, params.TransferTime(len(payload)+headerOverhead)); err != nil {
			return nil, err
		}
	}

	// The handler gets a private copy of the payload: Endpoint.Call promises
	// the caller its buffer is free for reuse once Call returns, while the
	// handler (which may outlive an abandoned call, and whose zero-copy
	// briefcase decode aliases its input) owns what it receives — the same
	// ownership transfer a real wire performs.
	req := append([]byte(nil), payload...)

	// A live handler is waited on without a network-level timeout: the
	// timeout models unreachability (crash, partition, loss), not slow
	// computation. Nested synchronous meets would otherwise cascade inner
	// failure-detection delays into spurious outer timeouts. Callers bound
	// total time with ctx. A call that cannot be cancelled waits for the
	// handler whatever happens, so the handler runs on the caller's
	// goroutine: a nested itinerary then costs no goroutine (and no fresh
	// stack to regrow) per hop. Otherwise it runs on its own goroutine,
	// which cancellation abandons.
	type result struct {
		data []byte
		err  error
	}
	var res result
	if ctx.Done() == nil {
		res.data, res.err = h(nd.id, kind, req)
	} else {
		ch := make(chan result, 1)
		go func() {
			data, err := h(nd.id, kind, req)
			ch <- result{data, err}
		}()
		select {
		case res = <-ch:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	// The callee may have crashed while serving; the reply is then lost.
	if dest.crashed.Load() {
		return nil, awaitTimeout(ctx, timeout, to)
	}
	back, backOK := nd.net.linkFor(to, nd.id)
	if !backOK || nd.net.lossDrop(back.Loss) {
		return nil, awaitTimeout(ctx, timeout, to)
	}
	rdropped, rrelease, rerr := nd.net.applyFaults(ctx, to, nd.id)
	if rrelease != nil {
		defer close(rrelease)
	}
	if rerr != nil {
		return nil, rerr
	}
	if rdropped {
		return nil, awaitTimeout(ctx, timeout, to)
	}
	nd.net.chargeTransfer(to, nd.id, kind, len(res.data), back)
	if nd.net.realTime {
		if err := sleepCtx(ctx, back.TransferTime(len(res.data)+headerOverhead)); err != nil {
			return nil, err
		}
	}
	return res.data, res.err
}

func awaitTimeout(ctx context.Context, d time.Duration, to SiteID) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return fmt.Errorf("%w: no reply from %s", ErrTimeout, to)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}
