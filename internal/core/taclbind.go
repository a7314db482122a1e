package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/folder"
	"repro/internal/tacl"
)

// TacL host binding. The TACOMA host commands are registered once per site
// on a shared read-only tacl.Table (newHostTable); a visiting script sees:
//
//	Briefcase:    bc_push bc_pop bc_dequeue bc_peek bc_get bc_set bc_len
//	              bc_has bc_del bc_names bc_list bc_putlist
//	File cabinet: cab_append cab_contains cab_visit cab_len cab_list
//	              cab_dequeue
//	Kernel:       meet jump park spawn host from neighbors rand log
//
// plus globals $host (site name) and $from (initiating agent).
//
// Commands read their activation state (site, briefcase, script source)
// from the interpreter's Host field instead of closing over it, so an
// activation costs zero command registrations: runTacL takes a pooled
// interpreter, points Host at a pooled hostCtx, and runs the compiled
// script. Only guard-aware builtins (Guard.Bind) still register per
// activation, and only at guarded sites.

// hostCtx is the per-activation binding the shared host commands read
// through tacl.Interp.Host.
type hostCtx struct {
	mc  *MeetContext
	bc  *folder.Briefcase
	src string
}

var hostCtxPool = sync.Pool{New: func() any { return new(hostCtx) }}

func hctx(in *tacl.Interp) *hostCtx { return in.Host.(*hostCtx) }

// runTacL executes a TacL agent script with the TACOMA host commands bound
// to the current site and briefcase. The script is compiled through the
// site's content-hash cache, so repeat activations (and multi-hop
// itineraries of the same signed script) skip parsing entirely.
func runTacL(mc *MeetContext, bc *folder.Briefcase, src string) error {
	site := mc.Site
	prog, err := site.scripts.compiled(src)
	if err != nil {
		return err
	}
	in := tacl.Get(site.taclTable)
	in.MaxSteps = site.cfg.MaxSteps
	// Scripted activations run on scheduler pool workers (async meets,
	// parked-agent resumes) as well as caller goroutines; yielding between
	// step-budget slices keeps one long script from monopolizing a worker.
	in.YieldEvery = taclYieldEvery
	in.Yield = runtime.Gosched
	if f := site.cfg.StepHookFactory; f != nil {
		in.StepHook = f(mc.Agent, mc.From)
	}
	g := site.Guard()
	if g != nil {
		// The guard's metering hook chains after any configured factory
		// hook, so cycle billing and guard metering compose.
		if h := g.StepHook(mc, bc); h != nil {
			if prev := in.StepHook; prev != nil {
				in.StepHook = func() error {
					if err := prev(); err != nil {
						return err
					}
					return h()
				}
			} else {
				in.StepHook = h
			}
		}
		// Guard-aware builtins (acl_check, sign_bc, principal, ecu_balance)
		// exist only at guarded sites.
		g.Bind(in, mc, bc)
	}
	h := hostCtxPool.Get().(*hostCtx)
	h.mc, h.bc, h.src = mc, bc, src
	in.Host = h
	in.SetGlobal("host", string(site.ID()))
	in.SetGlobal("from", mc.From)

	_, err = in.EvalScript(prog)

	h.mc, h.bc, h.src = nil, nil, ""
	hostCtxPool.Put(h)
	tacl.Put(in)
	if _, ok := tacl.IsJump(err); ok {
		return nil // the agent continues elsewhere; this activation is done
	}
	if _, ok := tacl.IsPark(err); ok {
		return nil // the agent is parked; this activation is done
	}
	return err
}

// taclYieldEvery is how many interpreter steps a script runs between
// scheduler yields — big enough to amortize the call, small enough that a
// budget-sized script yields hundreds of times.
const taclYieldEvery = 1024

func need(args []string, n int, usage string) error {
	if len(args) != n {
		return fmt.Errorf("wrong # args: should be %q", usage)
	}
	return nil
}

// checkCab enforces the site guard's capability ACL on cabinet access;
// the briefcase identifies the visiting agent's principal.
func (h *hostCtx) checkCab(name string, write bool) error {
	if g := h.mc.Site.Guard(); g != nil {
		return g.CheckCabinet(h.mc, h.bc, name, write)
	}
	return nil
}

// checkBc guards mutations of the briefcase's own folders: frozen
// folders (the guard freezes SIG after signing) refuse politely rather
// than panicking, and the site guard protects its managed folders (SIG,
// CASH) from in-script tampering even before they are frozen. It returns
// the named folder (nil when absent) so callers skip a second map lookup;
// the result is never held across other host commands, which may replace
// folders wholesale (guard signing, putlist).
func (h *hostCtx) checkBc(name string) (*folder.Folder, error) {
	f := h.bc.Lookup(name)
	if f != nil && f.IsFrozen() {
		return nil, fmt.Errorf("%w: %q", folder.ErrFrozen, name)
	}
	if g := h.mc.Site.Guard(); g != nil {
		if err := g.CheckBriefcase(h.mc, h.bc, name); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// newHostTable returns the shared command table: the TacL builtins plus the
// TACOMA host command set. All host commands are static (activation state
// flows through hostCtx), so one table serves every site in the process;
// it is built lazily exactly once.
func newHostTable() *tacl.Table {
	hostTableOnce.Do(func() { hostTableShared = buildHostTable() })
	return hostTableShared
}

var (
	hostTableOnce   sync.Once
	hostTableShared *tacl.Table
)

func buildHostTable() *tacl.Table {
	t := tacl.NewTable()
	t.RegisterAll(map[string]tacl.CmdFunc{
		"bc_push":      hostBcPush,
		"bc_pop":       hostBcPop,
		"bc_dequeue":   hostBcDequeue,
		"bc_peek":      hostBcPeek,
		"bc_get":       hostBcGet,
		"bc_set":       hostBcSet,
		"bc_len":       hostBcLen,
		"bc_has":       hostBcHas,
		"bc_del":       hostBcDel,
		"bc_names":     hostBcNames,
		"bc_list":      hostBcList,
		"bc_putlist":   hostBcPutlist,
		"cab_append":   hostCabAppend,
		"cab_contains": hostCabContains,
		"cab_visit":    hostCabVisit,
		"cab_len":      hostCabLen,
		"cab_list":     hostCabList,
		"cab_dequeue":  hostCabDequeue,
		"meet":         hostMeet,
		"host":         hostHost,
		"from":         hostFrom,
		"neighbors":    hostNeighbors,
		"rand":         hostRand,
		"log":          hostLog,
		"jump":         hostJump,
		"park":         hostPark,
		"spawn":        hostSpawn,
	})
	return t
}

// --- briefcase commands ---

func hostBcPush(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "bc_push folder value"); err != nil {
		return "", err
	}
	h := hctx(in)
	f, err := h.checkBc(args[0])
	if err != nil {
		return "", err
	}
	if f == nil {
		f = h.bc.Ensure(args[0])
	}
	// PushOwned of arena bytes: the briefcase push in a script's hot loop
	// costs no per-call allocation (the arena's pages are append-only, so
	// the folder's ownership of the copy is never violated).
	f.PushOwned(in.ArenaBytes(args[1]))
	return "", nil
}

func hostBcPop(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_pop folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	f, err := h.checkBc(args[0])
	if err != nil {
		return "", err
	}
	if f == nil {
		return "", fmt.Errorf("%w: %q", folder.ErrNoFolder, args[0])
	}
	return f.PopString()
}

func hostBcDequeue(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_dequeue folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	f, err := h.checkBc(args[0])
	if err != nil {
		return "", err
	}
	if f == nil {
		return "", fmt.Errorf("%w: %q", folder.ErrNoFolder, args[0])
	}
	return f.DequeueString()
}

func hostBcPeek(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_peek folder"); err != nil {
		return "", err
	}
	f, err := hctx(in).bc.Folder(args[0])
	if err != nil {
		return "", err
	}
	b, err := f.Peek()
	return string(b), err
}

func hostBcGet(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "bc_get folder index"); err != nil {
		return "", err
	}
	f, err := hctx(in).bc.Folder(args[0])
	if err != nil {
		return "", err
	}
	i, err := strconv.Atoi(args[1])
	if err != nil {
		return "", fmt.Errorf("bad index %q", args[1])
	}
	return f.StringAt(i)
}

func hostBcSet(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 3, "bc_set folder index value"); err != nil {
		return "", err
	}
	h := hctx(in)
	f, err := h.checkBc(args[0])
	if err != nil {
		return "", err
	}
	if f == nil {
		return "", fmt.Errorf("%w: %q", folder.ErrNoFolder, args[0])
	}
	i, err := strconv.Atoi(args[1])
	if err != nil {
		return "", fmt.Errorf("bad index %q", args[1])
	}
	return "", f.Set(i, []byte(args[2]))
}

func hostBcLen(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_len folder"); err != nil {
		return "", err
	}
	f, err := hctx(in).bc.Folder(args[0])
	if err != nil {
		return "0", nil
	}
	return strconv.Itoa(f.Len()), nil
}

func hostBcHas(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_has folder"); err != nil {
		return "", err
	}
	return tacl.FormatBool(hctx(in).bc.Has(args[0])), nil
}

func hostBcDel(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_del folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	if _, err := h.checkBc(args[0]); err != nil {
		return "", err
	}
	h.bc.Delete(args[0])
	return "", nil
}

func hostBcNames(in *tacl.Interp, args []string) (string, error) {
	return tacl.FormatList(hctx(in).bc.Names()), nil
}

func hostBcList(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "bc_list folder"); err != nil {
		return "", err
	}
	f, err := hctx(in).bc.Folder(args[0])
	if err != nil {
		return "", nil
	}
	return tacl.FormatList(f.Strings()), nil
}

func hostBcPutlist(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "bc_putlist folder list"); err != nil {
		return "", err
	}
	h := hctx(in)
	if _, err := h.checkBc(args[0]); err != nil {
		return "", err
	}
	elems, err := tacl.ParseList(args[1])
	if err != nil {
		return "", err
	}
	h.bc.Put(args[0], folder.OfStrings(elems...))
	return "", nil
}

// --- file cabinet commands ---

func hostCabAppend(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "cab_append folder value"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], true); err != nil {
		return "", err
	}
	h.mc.Site.Cabinet().AppendString(args[0], args[1])
	return "", nil
}

func hostCabContains(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "cab_contains folder value"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], false); err != nil {
		return "", err
	}
	return tacl.FormatBool(h.mc.Site.Cabinet().ContainsString(args[0], args[1])), nil
}

func hostCabVisit(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 2, "cab_visit folder value"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], true); err != nil {
		return "", err
	}
	return tacl.FormatBool(h.mc.Site.Cabinet().TestAndAppendString(args[0], args[1])), nil
}

func hostCabLen(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "cab_len folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], false); err != nil {
		return "", err
	}
	return strconv.Itoa(h.mc.Site.Cabinet().FolderLen(args[0])), nil
}

func hostCabList(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "cab_list folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], false); err != nil {
		return "", err
	}
	return tacl.FormatList(h.mc.Site.Cabinet().Snapshot(args[0]).Strings()), nil
}

func hostCabDequeue(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "cab_dequeue folder"); err != nil {
		return "", err
	}
	h := hctx(in)
	if err := h.checkCab(args[0], true); err != nil {
		return "", err
	}
	b, err := h.mc.Site.Cabinet().Dequeue(args[0])
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// --- kernel commands ---

func hostMeet(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "meet agent"); err != nil {
		return "", err
	}
	h := hctx(in)
	return "", h.mc.Site.Meet(h.mc, args[0], h.bc)
}

func hostHost(in *tacl.Interp, args []string) (string, error) {
	return string(hctx(in).mc.Site.ID()), nil
}

func hostFrom(in *tacl.Interp, args []string) (string, error) {
	return hctx(in).mc.From, nil
}

func hostNeighbors(in *tacl.Interp, args []string) (string, error) {
	return tacl.FormatList(hctx(in).mc.Site.Cabinet().Snapshot(folder.SitesFolder).Strings()), nil
}

func hostRand(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "rand n"); err != nil {
		return "", err
	}
	n, err := strconv.ParseInt(args[0], 10, 64)
	if err != nil || n <= 0 {
		return "", fmt.Errorf("rand needs a positive integer, got %q", args[0])
	}
	return strconv.FormatInt(hctx(in).mc.Site.Rand(n), 10), nil
}

func hostLog(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "log message"); err != nil {
		return "", err
	}
	h := hctx(in)
	h.mc.Site.Cabinet().AppendString("LOG", fmt.Sprintf("[%s] %s", h.mc.Agent, args[0]))
	return "", nil
}

// hostJump moves the agent to another site: the current source is pushed
// back onto CODE so the destination's ag_tacl can pop and run it, the
// briefcase travels via rexec, and execution here stops. State that
// must survive the move belongs in the briefcase; variables do not
// travel — this is restart-style migration, as in the paper.
func hostJump(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "jump site"); err != nil {
		return "", err
	}
	h := hctx(in)
	h.bc.Ensure(folder.CodeFolder).PushString(h.src)
	h.bc.PutString(folder.HostFolder, args[0])
	h.bc.PutString(folder.ContactFolder, AgTacl)
	if err := h.mc.Site.Meet(h.mc, AgRexec, h.bc); err != nil {
		// The move failed; the agent is still here and may handle it.
		if f, ferr := h.bc.Folder(folder.CodeFolder); ferr == nil {
			_, _ = f.Pop() // undo the re-pushed source
		}
		return "", err
	}
	return "", tacl.JumpSignal(args[0])
}

// hostPark parks the agent at this site until work arrives: the current
// source is pushed back onto CODE (restart-style, exactly like jump — the
// script reruns from the top on wakeup), the briefcase becomes the durable
// continuation in the site cabinet, and execution here stops without
// holding a goroutine. The optional watch folder names a cabinet folder
// whose growth wakes the agent (a mailbox, typically); a meet addressed to
// the park name always wakes it. The resumed script reads its identity and
// watermark from the PARK_NAME/PARK_WATCH/PARK_WMARK/PARK_HOP folders.
func hostPark(in *tacl.Interp, args []string) (string, error) {
	if len(args) < 1 || len(args) > 2 {
		return "", fmt.Errorf("wrong # args: should be %q", "park name ?watchfolder?")
	}
	h := hctx(in)
	watch := ""
	if len(args) == 2 {
		watch = args[1]
	}
	h.bc.Ensure(folder.CodeFolder).PushString(h.src)
	if err := h.mc.Site.Park(args[0], watch, h.bc); err != nil {
		// The park failed; the agent is still running and may handle it.
		if f, ferr := h.bc.Folder(folder.CodeFolder); ferr == nil {
			_, _ = f.Pop() // undo the re-pushed source
		}
		return "", err
	}
	return "", tacl.ParkSignal(args[0])
}

// hostSpawn clones the agent at another site and continues locally: the
// flooding pattern. The clone starts with a copy of the briefcase as
// it is at spawn time.
func hostSpawn(in *tacl.Interp, args []string) (string, error) {
	if err := need(args, 1, "spawn site"); err != nil {
		return "", err
	}
	h := hctx(in)
	h.bc.Ensure(folder.CodeFolder).PushString(h.src)
	h.bc.PutString(folder.HostFolder, args[0])
	h.bc.PutString(folder.ContactFolder, AgTacl)
	h.bc.PutString(DetachFolder, "1")
	err := h.mc.Site.Meet(h.mc, AgRexec, h.bc)
	// rexec consumed HOST/CONTACT/DETACH; remove the clone's code copy
	// from the local briefcase.
	if f, ferr := h.bc.Folder(folder.CodeFolder); ferr == nil {
		_, _ = f.Pop()
	}
	return "", err
}

// RunScript is a convenience for injecting a TacL agent into the system
// from Go: it wraps src into a CODE folder on bc (creating bc when nil) and
// meets ag_tacl at the site as an external client.
func RunScript(ctx context.Context, s *Site, src string, bc *folder.Briefcase) (*folder.Briefcase, error) {
	if bc == nil {
		bc = folder.NewBriefcase()
	}
	bc.Ensure(folder.CodeFolder).PushString(src)
	return bc, s.MeetClient(ctx, AgTacl, bc)
}
