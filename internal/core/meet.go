package core

import (
	"context"
	"time"

	"repro/internal/folder"
	"repro/internal/sched"
	"repro/internal/vnet"
)

// The unified meet entry point. Site.Meet(ctx, agent, bc, ...MeetOption)
// subsumes the three historical entry points:
//
//	s.Meet(mc, agent, bc)                  → s.Meet(mc, agent, bc)       (unchanged; *MeetContext is a context.Context)
//	s.MeetClient(ctx, agent, bc)           → s.Meet(ctx, agent, bc)
//	s.RemoteMeet(ctx, dest, agent, bc)     → s.Meet(ctx, agent, bc, At(dest))
//
// *MeetContext implements context.Context (delegating to its Ctx), so the
// first parameter accepts both a plain context — a client starting a
// computation from outside the agent system — and the MeetContext of a
// currently executing agent, which preserves nesting depth and caller
// identity exactly as the old Meet did. Every pre-redesign call site
// compiles and behaves unchanged.

// Deadline implements context.Context.
func (mc *MeetContext) Deadline() (time.Time, bool) { return mc.base().Deadline() }

// Done implements context.Context.
func (mc *MeetContext) Done() <-chan struct{} { return mc.base().Done() }

// Err implements context.Context.
func (mc *MeetContext) Err() error { return mc.base().Err() }

// Value implements context.Context.
func (mc *MeetContext) Value(key any) any { return mc.base().Value(key) }

// base returns the underlying cancellation context (Background when the
// MeetContext is nil or carries none).
func (mc *MeetContext) base() context.Context {
	if mc == nil || mc.Ctx == nil {
		return context.Background()
	}
	return mc.Ctx
}

// withCtx derives a copy of mc whose cancellation context is ctx; caller
// identity, agent, and nesting depth carry over.
func (mc *MeetContext) withCtx(ctx context.Context) *MeetContext {
	c := *mc
	c.Ctx = ctx
	return &c
}

// MeetOption tunes one Meet call.
type MeetOption func(*meetOpts)

type meetOpts struct {
	dest     vnet.SiteID
	deadline time.Time
	async    *sched.Handle
}

// At directs the meet to the named site: the briefcase travels there, the
// agent executes there, and the mutated briefcase folds back on success. A
// dest equal to the local site (or empty) short-circuits to a local meet.
func At(dest vnet.SiteID) MeetOption {
	return func(o *meetOpts) { o.dest = dest }
}

// Async detaches the meet: Meet submits it to the site scheduler and
// returns nil immediately, arming h to report completion (Wait/Done/Err).
// The caller must not touch the briefcase until h completes — the meet
// owns it in the meantime. Asynchronous meets count as site background
// work, so Site.Wait quiesces them.
func Async(h *sched.Handle) MeetOption {
	return func(o *meetOpts) { o.async = h }
}

// Deadline bounds the meet: the cancellation context expires at t. A local
// agent sees the deadline on its MeetContext; for a meet sent At() another
// site it bounds the network exchange (the remote activation starts fresh
// at the destination, as all arrivals do).
func Deadline(t time.Time) MeetOption {
	return func(o *meetOpts) { o.deadline = t }
}

// Meet executes the named agent with the briefcase — the paper's "meet B
// with bc". With no options the meet is local and synchronous: the caller
// blocks until the agent terminates the meet; information is exchanged
// through the shared briefcase. Options redirect (At), detach (Async), or
// bound (Deadline) the meet.
//
// ctx is either a plain context.Context (a client entering the agent
// system from outside) or the *MeetContext of the currently executing
// agent, which makes the nested meet carry the caller's identity and
// nesting depth. Passing nil is a fresh client context.
//
// Meeting an agent that is parked at this site does not block: the
// briefcase is deposited in the agent's pending folder, the agent's task
// is enqueued with the scheduler, and the meet returns nil immediately —
// delivery semantics, like mail, rather than rendezvous.
func (s *Site) Meet(ctx context.Context, agent string, bc *folder.Briefcase, opts ...MeetOption) error {
	var mc *MeetContext
	if m, ok := ctx.(*MeetContext); ok {
		mc = m // a typed-nil *MeetContext behaves like a nil ctx below
	} else if ctx != nil {
		mc = &MeetContext{Ctx: ctx}
	}
	if len(opts) == 0 {
		return s.meet(mc, agent, bc)
	}
	var o meetOpts
	for _, opt := range opts {
		opt(&o)
	}
	if mc == nil {
		mc = &MeetContext{Ctx: context.Background()}
	}
	var cancel context.CancelFunc
	if !o.deadline.IsZero() {
		var dctx context.Context
		dctx, cancel = context.WithDeadline(mc.base(), o.deadline)
		mc = mc.withCtx(dctx)
	}
	exec := func(mc *MeetContext) error {
		if o.dest != "" && o.dest != s.id {
			if bc == nil {
				// The wire path serializes the briefcase; a caller with
				// nothing to send still ships (and discards) an empty one.
				bc = folder.NewBriefcase()
			}
			return s.remoteMeet(mc.base(), o.dest, agent, bc)
		}
		return s.meet(mc, agent, bc)
	}
	if h := o.async; h != nil {
		task := mc
		s.sched.Submit(agent, func() {
			err := exec(task)
			if cancel != nil {
				cancel()
			}
			h.Complete(err)
		})
		return nil
	}
	if cancel != nil {
		defer cancel()
	}
	return exec(mc)
}

// MeetClient starts a computation from outside the agent system: it meets
// the named local agent with a fresh context. It is deprecated in favor of
// Meet(ctx, agent, bc), which it thinly wraps; it remains so pre-redesign
// callers keep compiling and behaving unchanged.
func (s *Site) MeetClient(ctx context.Context, agent string, bc *folder.Briefcase) error {
	return s.meet(&MeetContext{Ctx: ctx}, agent, bc)
}

// RemoteMeet executes the named agent at another site, sending the
// briefcase there and folding the mutated briefcase back on success. It is
// deprecated in favor of Meet(ctx, agent, bc, At(dest)), which it thinly
// wraps; it remains so pre-redesign callers keep compiling and behaving
// unchanged.
//
// The briefcase travels in the delta format (see wire.go): folders the
// peer already holds ship as content refs instead of bytes, so a signed
// multi-hop agent stops re-shipping its own code after the first hop over
// a link.
func (s *Site) RemoteMeet(ctx context.Context, dest vnet.SiteID, agent string, bc *folder.Briefcase) error {
	return s.remoteMeet(ctx, dest, agent, bc)
}
