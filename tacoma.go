// Package tacoma is the public API of this reproduction of "Operating
// System Support for Mobile Agents" (Johansen, van Renesse, Schneider,
// HotOS-V 1995) — the TACOMA system.
//
// TACOMA structures distributed computations as agents: processes that
// migrate through a network to satisfy requests made by their clients.
// The operating-system support consists of a small set of abstractions —
// folders, briefcases, file cabinets, and the meet operation — on which
// everything else (migration, couriers, diffusion, electronic cash,
// brokers, rear guards) is built as ordinary agents.
//
// # Quick start
//
//	sys := tacoma.NewSystem(3, tacoma.SystemConfig{})
//	bc, err := tacoma.RunScript(ctx, sys.SiteAt(0), `
//	    bc_push TRAIL [host]
//	    if {[host] eq "site-0"} { jump site-1 }
//	    bc_push TRAIL [host]
//	`, nil)
//
// Agents written in TacL (a small Tcl-like language, as in the paper's
// Tcl-based prototype) carry their source in the briefcase CODE folder and
// migrate by meeting the rexec agent; the jump command is sugar for that.
// Native Go services implement the Agent interface (AgentFunc adapts a
// function) and are registered at sites with Site.Register; a client meets
// one with Site.Meet.
//
// # Security and accountability
//
// NewGuard over a NewPolicy and a NewKeyring, attached with InstallGuard,
// makes a site check signatures and capabilities on every meet; a guard's
// Meter (NewMeter) charges visiting agents the electronic cash they carry
// in CashFolder and files a record in the launching site's BillingFolder.
// SignedScript and LaunchSigned start a signed roaming agent.
//
// The other subsystems (electronic cash, brokers, rear guards, the fleet
// mesh, mail, StormCast, durable cabinets) live under internal/ in this
// module and are used directly by its commands and examples.
package tacoma

import (
	"context"

	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/guard"
)

// Kernel types.
type (
	// Site is one autonomous TACOMA node: a place where agents execute.
	Site = core.Site
	// SystemConfig configures a simulated system.
	SystemConfig = core.SystemConfig
	// Agent is anything that can be met.
	Agent = core.Agent
	// AgentFunc adapts a function to the Agent interface.
	AgentFunc = core.AgentFunc
	// MeetContext carries the execution context of one meet.
	MeetContext = core.MeetContext
	// Briefcase is the collection of named folders that travels with an
	// agent.
	Briefcase = folder.Briefcase
	// Capability lists what a principal may do at a guarded site.
	Capability = guard.Capability
)

// Well-known folder names.
const (
	ResultFolder  = folder.ResultFolder
	BillingFolder = guard.BillingFolder
	CashFolder    = guard.CashFolder
)

// NewSystem creates n sites named "site-0" .. "site-(n-1)" on a fresh
// simulated network.
func NewSystem(n int, cfg SystemConfig) *core.System { return core.NewSystem(n, cfg) }

// NewFolder returns an empty folder.
func NewFolder() *folder.Folder { return folder.New() }

// RunScript injects a TacL agent at a site: the script goes into the CODE
// folder of bc (created when nil) and ag_tacl is met.
func RunScript(ctx context.Context, s *Site, src string, bc *Briefcase) (*Briefcase, error) {
	return core.RunScript(ctx, s, src, bc)
}

// NewGuard creates a guard over a policy and keyring (nil arguments get
// fresh permissive defaults).
func NewGuard(p *guard.Policy, k *guard.Keyring) *guard.Guard { return guard.New(p, k) }

// NewPolicy returns an empty, permissive capability policy.
func NewPolicy() *guard.Policy { return guard.NewPolicy() }

// NewKeyring returns an empty signing keyring.
func NewKeyring() *guard.Keyring { return guard.NewKeyring() }

// NewMeter creates a cycle meter charging activationFee per activation plus
// one ECU per stepsPerUnit TacL steps.
func NewMeter(stepsPerUnit int, activationFee int64) *guard.Meter {
	return guard.NewMeter(stepsPerUnit, activationFee)
}

// InstallGuard attaches a guard to a site: meets, arrivals, cabinet access,
// and step accounting flow through it from then on.
func InstallGuard(s *Site, g *guard.Guard) *guard.Guard { return guard.Install(s, g) }

// SignedScript prepares a briefcase for a signed roaming TacL agent; start
// it with LaunchSigned.
func SignedScript(k *guard.Keyring, principal, home, src string, bc *Briefcase) (*Briefcase, error) {
	return guard.SignedScript(k, principal, home, src, bc)
}

// LaunchSigned starts a prepared signed agent at a site.
func LaunchSigned(ctx context.Context, s *Site, bc *Briefcase) error {
	return guard.Launch(ctx, s, bc)
}
