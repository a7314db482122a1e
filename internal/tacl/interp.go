package tacl

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Interp executes TacL scripts. Hot activation paths obtain interpreters
// from the pool (Get/Put) bound to a shared command Table, so a fresh
// activation costs no map allocations and no command registrations; New
// remains for one-off interpreters.
//
// An Interp is not safe for concurrent use; the kernel gives each agent
// activation its own.
type Interp struct {
	globals  map[string]string
	gscope   varScope // slot storage for top-level variables (see varScope)
	frames   []*frame
	procs    map[string]*procDef // lazily allocated by proc
	commands map[string]CmdFunc  // per-interp overrides; lazily allocated by Register
	table    *Table              // shared read-only command prototype

	// MaxSteps bounds the number of command evaluations (0 = unlimited).
	// Exceeding it aborts the script with ErrBudget: TACOMA sites are
	// autonomous and must be able to bound what a visiting agent consumes.
	MaxSteps int
	// Steps counts command evaluations so far.
	Steps int
	// StepHook, if set, is invoked on every command evaluation; it can
	// return an error to abort the agent (used to charge electronic cash
	// for cycles).
	StepHook func() error
	// YieldEvery, when positive, invokes Yield every YieldEvery command
	// evaluations. The kernel sets it so a long-running script running on a
	// bounded scheduler worker pool yields its worker between budget
	// slices; a yield is a preemption point, not an abort.
	YieldEvery int
	// Yield is the preemption callback paired with YieldEvery.
	Yield func()
	// Out receives the output of puts.
	Out io.Writer
	// Host carries an opaque per-activation binding context for host
	// commands registered on a shared Table: a command shared between all
	// activations reads its briefcase and site through in.Host instead of
	// closing over them, which is what lets one Table serve every
	// activation at a site.
	Host any

	depth int
	// oracle is the test seam: the package tests install their reference
	// interpreter here, and EvalScript, evalExpr and evalBody hand off to
	// it, to check the VM differentially. Always nil in production; Put
	// clears it.
	oracle evaluator
	// curLine is the source line of the command currently dispatching; the
	// loop builtins read it so their per-iteration step charge reports the
	// loop's own line.
	curLine int
	// freeFrames recycles proc call frames (and their maps) within this
	// interpreter's lifetime.
	freeFrames []*frame
	// freeVMFrames recycles VM loop-state frames, as freeFrames does for
	// proc frames.
	freeVMFrames []*vmFrame
	// arena bump-allocates small result strings for hot host commands.
	arena byteArena
	// fmtBuf is format's scratch buffer.
	fmtBuf []byte
	// argScratch is the argument arena: the VM pushes each command's
	// evaluated words here and hands the command its sub-slice, restoring
	// the length afterwards. Nested evaluation stacks cleanly because a
	// nested command's region starts at or beyond its parent's end.
	argScratch []string
	// canonState/canonMask cache the guard ops' shadow check: canonMask has
	// a bit per inlinable canonical builtin (kind*) that is still canonical
	// for this interpreter — the table snapshot's canon bits minus any name
	// shadowed by a script proc or per-interp Register override. Recomputed
	// lazily whenever canonState no longer matches the table's published
	// snapshot; proc definition and Register invalidate it by nil-ing
	// canonState.
	canonState *tableState
	canonMask  uint16
	// retVal carries the value of the return in flight (see errReturn).
	retVal string
	// procsUnmarked is set when a proc was defined under a name the symbol
	// table could not intern, so no symbol carries its proc bit and static
	// dispatch must consult procs for every name (see dispatchStatic).
	procsUnmarked bool
	// nextYield is the smallest step count at which the yield cadence
	// could fire, derived from Steps/YieldEvery the last time the VM took
	// chargeStep's slow path. Steps below it provably have
	// Steps%YieldEvery != 0, so the hot step op skips the division. Zero
	// forces the slow path (recomputation); Put resets it.
	nextYield int
}

// CmdFunc implements a command. args excludes the command name.
type CmdFunc func(in *Interp, args []string) (string, error)

// evaluator runs scripts and expressions in place of the VM; see
// Interp.oracle.
type evaluator interface {
	evalScript(in *Interp, s *Script) (string, error)
	evalExpr(in *Interp, src string) (string, error)
	evalBody(in *Interp, args []string, i int) (string, error)
}

type procDef struct {
	name string
	body *Script
	sig  *procSig
}

// procSig is a proc's parsed parameter list plus each parameter's slot in
// the body's compiled layout (-1: the name lives in the frame map), so
// binding a call's arguments is an array store per parameter, not a name
// lookup. Immutable once built and shared through the body Script: an agent
// that defines the same proc in every activation parses and resolves its
// parameters once per process.
type procSig struct {
	spec   string
	params []procParam
	layout *program // the body's compiled program
	slots  []int32
}

// newProcSig parses spec and resolves its parameters against body's
// compiled layout; a body that does not compile fails the definition.
func newProcSig(spec string, body *Script) (*procSig, error) {
	params, err := parseParams(spec)
	if err != nil {
		return nil, err
	}
	layout, err := body.compiled()
	if err != nil {
		return nil, err
	}
	sig := &procSig{spec: spec, params: params, layout: layout, slots: make([]int32, len(params))}
	for i := range params {
		sig.slots[i] = -1
		if j, ok := layout.varIdx[params[i].name]; ok {
			sig.slots[i] = j
		}
	}
	return sig, nil
}

type procParam struct {
	name     string
	def      string
	hasDef   bool
	variadic bool
}

type frame struct {
	vars    map[string]string
	global  map[string]bool   // names linked to globals via the global command
	aliases map[string]varRef // names linked by upvar
	varScope
}

// slotLive marks a slot as holding a variable; a zero meta byte is "unset".
const slotLive uint8 = 1

// varScope is the slot-resolved half of a variable scope (one per proc
// frame, plus Interp.gscope for top level). When a scope is bound to a
// compiled program, every variable name the compiler saw statically owns a
// dense slot index in that program's layout (program.varIdx), and the
// name's storage IS the slot — an array cell, no hashing. Names outside the
// layout (computed names, overflow past maxVarSlots) live in the scope's
// ordinary map. The placement rule is a function of (terminal scope layout,
// name) only, so the VM's slot ops, the name-based builtins, and the host
// Get/Set API all agree on where a variable lives; the equivalence suite
// pins that agreement.
type varScope struct {
	prog  *program // layout owner; nil = unbound, everything in the map
	slots []string
	meta  []uint8
	// diverted is set once the scope gains a `global` link or an `upvar`
	// alias: slot fast paths (which skip alias resolution) stand down for
	// the rest of the frame's lifetime and all access goes through the full
	// resolver. Links are permanent per frame, so a sticky bool is exact.
	diverted bool
}

// bind sizes the scope's slot arrays for program p's variable layout. The
// caller guarantees the arrays are already scrubbed (clearScope).
func (sc *varScope) bind(p *program) {
	n := len(p.varNames)
	if cap(sc.slots) >= n {
		sc.slots = sc.slots[:n]
		sc.meta = sc.meta[:n]
	} else {
		sc.slots = make([]string, n)
		sc.meta = make([]uint8, n)
	}
	sc.prog = p
}

// clearScope unbinds the scope and drops every slot's string reference so a
// pooled frame or interpreter never pins a prior activation's values.
func (sc *varScope) clearScope() {
	for i := range sc.slots {
		sc.slots[i] = ""
	}
	for i := range sc.meta {
		sc.meta[i] = 0
	}
	sc.slots = sc.slots[:0]
	sc.meta = sc.meta[:0]
	sc.prog = nil
	sc.diverted = false
}

// slotOf returns name's slot index in the scope's bound layout, or -1.
func (sc *varScope) slotOf(name string) int32 {
	if sc.prog != nil {
		if i, ok := sc.prog.varIdx[name]; ok {
			return i
		}
	}
	return -1
}

// setParam binds parameter pi of sig in a fresh frame (no links can exist
// yet): into its slot when the frame is bound to sig's resolved layout,
// by name otherwise.
func (f *frame) setParam(sig *procSig, pi int, value string) {
	i := int32(-1)
	if f.prog == sig.layout {
		i = sig.slots[pi]
	} else {
		i = f.slotOf(sig.params[pi].name)
	}
	if i >= 0 {
		f.slots[i] = value
		f.meta[i] = slotLive
		return
	}
	f.vars[sig.params[pi].name] = value
}

// varRef names a variable in another scope: frame == nil means globals.
type varRef struct {
	frame *frame
	name  string
}

func ensureAliases(f *frame) map[string]varRef {
	if f.aliases == nil {
		f.aliases = make(map[string]varRef)
	}
	return f.aliases
}

// Interpreter-level errors.
var (
	// ErrBudget reports that the agent exceeded its step budget.
	ErrBudget = errors.New("tacl: step budget exhausted")
	// ErrDepth reports runaway recursion.
	ErrDepth = errors.New("tacl: recursion too deep")
	// ErrTooLarge reports a repeat command asked for a result past its cap.
	ErrTooLarge = errors.New("result too large")
)

// Caps on what one repeat command builds: string repeat's result bytes and
// lrepeat's element count.
const (
	maxRepeatBytes = 1 << 24
	maxRepeatElems = 1 << 20
)

// maxDepth bounds proc recursion and eval nesting.
const maxDepth = 200

// Control-flow signals travel as errors.
var (
	errBreak    = errors.New("tacl: break outside loop")
	errContinue = errors.New("tacl: continue outside loop")
)

// errReturn is the signal return raises. Its value travels on
// Interp.retVal, so the signal itself is one preallocated sentinel and a
// proc return allocates nothing; callProc takes the value. Its text is what
// a return outside any proc reports.
var errReturn = errors.New("tacl: return outside proc")

// jumpSignal aborts script execution after a successful migration; the
// kernel's jump command raises it so no code after jump runs at the origin.
type jumpSignal struct{ dest string }

func (j *jumpSignal) Error() string { return "tacl: agent jumped to " + j.dest }

// IsJump reports whether err is the post-migration stop signal and, if so,
// the destination site.
func IsJump(err error) (string, bool) {
	if js, ok := signalOf(err).(*jumpSignal); ok {
		return js.dest, true
	}
	return "", false
}

// JumpSignal constructs the stop signal for a migration to dest. Only the
// kernel's migration commands should raise it.
func JumpSignal(dest string) error { return &jumpSignal{dest: dest} }

// parkSignal aborts script execution after a successful park; the kernel's
// park command raises it so no code after park runs in this activation —
// the script restarts from the top when the agent is woken.
type parkSignal struct{ name string }

func (p *parkSignal) Error() string { return "tacl: agent parked as " + p.name }

// IsPark reports whether err is the post-park stop signal and, if so, the
// park name.
func IsPark(err error) (string, bool) {
	if ps, ok := signalOf(err).(*parkSignal); ok {
		return ps.name, true
	}
	return "", false
}

// ParkSignal constructs the stop signal for a park under name. Only the
// kernel's park command should raise it.
func ParkSignal(name string) error { return &parkSignal{name: name} }

// Table is a shared, read-mostly command table: the prototype for many
// interpreters. Lookups are lock-free (an atomically published map
// snapshot); Register copies the map, so it belongs in setup code, not on
// hot paths. The sorted name list is cached on the snapshot and invalidated
// by Register, so Commands/info commands never re-sort an unchanged table.
type Table struct {
	mu    sync.Mutex
	state atomic.Pointer[tableState]
}

type tableState struct {
	cmds map[string]CmdFunc
	// dense is the VM's inline cache: the same commands indexed by interned
	// symbol id, so static dispatch is an atomic load plus an array index.
	// Rebuilt (with cmds) on every Register, which is what invalidates all
	// compiled call sites at once.
	dense []CmdFunc
	canon uint16   // bitmask of canonical inlinable builtins (kind* bits)
	names []string // sorted; nil until computed by Names
}

// NewTable returns a table preloaded with the full builtin command set.
func NewTable() *Table {
	base := builtinTable().state.Load().cmds
	cmds := make(map[string]CmdFunc, len(base)+32)
	for k, v := range base {
		cmds[k] = v
	}
	t := &Table{}
	t.state.Store(buildTableState(cmds))
	return t
}

// Register installs (or replaces) a command on the table. Not for hot
// paths: it copies the table so concurrent lookups stay lock-free.
func (t *Table) Register(name string, fn CmdFunc) {
	t.RegisterAll(map[string]CmdFunc{name: fn})
}

// RegisterAll installs a batch of commands with a single copy of the table.
func (t *Table) RegisterAll(cmds map[string]CmdFunc) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.state.Load().cmds
	next := make(map[string]CmdFunc, len(old)+len(cmds))
	for k, v := range old {
		next[k] = v
	}
	for k, v := range cmds {
		next[k] = v
	}
	t.state.Store(buildTableState(next))
}

func (t *Table) lookup(name string) (CmdFunc, bool) {
	fn, ok := t.state.Load().cmds[name]
	return fn, ok
}

// Names returns the table's command names in sorted order. The list is
// computed once and cached until the next Register; callers must not
// mutate it.
func (t *Table) Names() []string {
	if st := t.state.Load(); st.names != nil {
		return st.names
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state.Load()
	if st.names != nil {
		return st.names
	}
	names := make([]string, 0, len(st.cmds))
	for n := range st.cmds {
		names = append(names, n)
	}
	sort.Strings(names)
	t.state.Store(&tableState{cmds: st.cmds, dense: st.dense, canon: st.canon, names: names})
	return names
}

// builtinTable is the shared prototype holding the builtin command set,
// built once on first use (after all init-time builtin registration).
var (
	builtinOnce  sync.Once
	builtinProto *Table
)

func builtinTable() *Table {
	builtinOnce.Do(func() {
		cmds := make(map[string]CmdFunc, 64)
		registerBuiltinsInto(cmds)
		t := &Table{}
		t.state.Store(buildTableState(cmds))
		builtinProto = t
	})
	return builtinProto
}

// New creates an interpreter with the full builtin command set.
func New() *Interp {
	return &Interp{
		globals: make(map[string]string),
		table:   builtinTable(),
		Out:     io.Discard,
	}
}

// interpPool recycles interpreters across activations; see Get and Put.
var interpPool = sync.Pool{New: func() any {
	return &Interp{globals: make(map[string]string, 8), Out: io.Discard}
}}

// Get returns a pooled interpreter bound to the command table t. The
// interpreter arrives reset (no globals, procs, overrides, or steps); the
// caller sets MaxSteps, hooks, and Host, runs scripts, and hands the
// interpreter back with Put.
func Get(t *Table) *Interp {
	in := interpPool.Get().(*Interp)
	in.table = t
	return in
}

// Pool-hygiene caps: a pooled interpreter (or frame freelist entry) keeps
// its allocated maps and arrays for reuse, but one pathological activation
// — a giant script with hundreds of variables, a deep recursion, a huge
// argument list — must not size the pool's retained memory forever. State
// grown past these caps is dropped at Put/putFrame instead of recycled.
const (
	maxPooledVars    = 64   // map entries retained in globals / frame vars
	maxPooledSlots   = 64   // retained capacity of a scope's slot array
	maxPooledFrames  = 16   // retained proc-frame / VM-frame freelist length
	maxPooledScratch = 1024 // retained argument-arena capacity (strings)
)

// trimMapStr replaces a map that grew past the pool cap (Go maps never
// shrink their buckets) and clears a small one in place.
func trimMapStr(m map[string]string) map[string]string {
	if len(m) > maxPooledVars {
		return make(map[string]string, 8)
	}
	if len(m) > 0 {
		clear(m)
	}
	return m
}

// Put resets in and returns it to the pool. The caller must not use in
// afterwards. Recycled interpreters keep their allocated maps and frame
// freelist, which is what makes repeat activations allocation-free.
func Put(in *Interp) {
	in.globals = trimMapStr(in.globals)
	in.gscope.clearScope()
	if cap(in.gscope.slots) > maxPooledSlots {
		in.gscope.slots = nil
		in.gscope.meta = nil
	}
	if in.procs != nil {
		clear(in.procs)
	}
	if in.commands != nil {
		clear(in.commands)
	}
	in.frames = in.frames[:0]
	if len(in.freeFrames) > maxPooledFrames {
		for i := maxPooledFrames; i < len(in.freeFrames); i++ {
			in.freeFrames[i] = nil
		}
		in.freeFrames = in.freeFrames[:maxPooledFrames]
	}
	if len(in.freeVMFrames) > maxPooledFrames {
		for i := maxPooledFrames; i < len(in.freeVMFrames); i++ {
			in.freeVMFrames[i] = nil
		}
		in.freeVMFrames = in.freeVMFrames[:maxPooledFrames]
	}
	// Clear the whole argument arena (not just its length) so string
	// headers from this activation don't pin large arguments for the
	// pool's lifetime.
	if cap(in.argScratch) > maxPooledScratch {
		in.argScratch = nil
	}
	scratch := in.argScratch[:cap(in.argScratch)]
	clear(scratch)
	in.argScratch = scratch[:0]
	in.table = nil
	in.canonState = nil
	in.canonMask = 0
	in.retVal = ""
	in.procsUnmarked = false
	in.nextYield = 0
	in.MaxSteps = 0
	in.Steps = 0
	in.StepHook = nil
	in.YieldEvery = 0
	in.Yield = nil
	in.Out = io.Discard
	in.Host = nil
	in.depth = 0
	in.oracle = nil
	in.curLine = 0
	// Pooled VM frames were already scrubbed of element references by
	// putVMFrame; the freelist itself (and the arena page, which outlives
	// activations by design) stays for reuse.
	interpPool.Put(in)
}

// Register installs (or replaces) a host command for this interpreter only,
// shadowing any same-named command on the shared table.
func (in *Interp) Register(name string, fn CmdFunc) {
	if in.commands == nil {
		in.commands = make(map[string]CmdFunc, 8)
	}
	in.commands[name] = fn
	in.canonState = nil // the override may shadow an inlinable builtin
}

// Commands returns the names of all registered commands, sorted. With no
// per-interpreter registrations this is a copy of the shared table's cached
// sorted list — no re-sort per call.
func (in *Interp) Commands() []string {
	base := in.table.Names()
	if len(in.commands) == 0 {
		return append([]string(nil), base...)
	}
	seen := make(map[string]bool, len(base)+len(in.commands))
	out := make([]string, 0, len(base)+len(in.commands))
	for _, n := range base {
		seen[n] = true
		out = append(out, n)
	}
	for n := range in.commands {
		if !seen[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// SetGlobal sets a global variable, honoring the bound slot layout so host
// writes and script writes share one storage location per name.
func (in *Interp) SetGlobal(name, value string) {
	if i := in.gscope.slotOf(name); i >= 0 {
		in.gscope.slots[i] = value
		in.gscope.meta[i] = slotLive
		return
	}
	in.globals[name] = value
}

// Global reads a global variable (slot or map, per the bound layout).
func (in *Interp) Global(name string) (string, bool) {
	if i := in.gscope.slotOf(name); i >= 0 {
		if in.gscope.meta[i]&slotLive != 0 {
			return in.gscope.slots[i], true
		}
		return "", false
	}
	v, ok := in.globals[name]
	return v, ok
}

// Eval parses and runs a script, returning the result of its last command.
func (in *Interp) Eval(src string) (string, error) {
	s, err := Parse(src)
	if err != nil {
		return "", err
	}
	return in.EvalScript(s)
}

// EvalCached is Eval through the shared parse cache: the same source text
// parses once process-wide. Control-flow builtins run their bodies through
// it so a loop body is parsed exactly once, not once per iteration.
func (in *Interp) EvalCached(src string) (string, error) {
	s, err := ParseCached(src)
	if err != nil {
		return "", err
	}
	return in.EvalScript(s)
}

// evalBody runs args[i], one body of a control builtin called with args,
// through the parse cache. It is a seam for the test oracle: where the VM
// inlines the construct, the body's commands report their lines in the
// enclosing script, and to do the same the oracle must know which word of
// the command the body is.
func (in *Interp) evalBody(args []string, i int) (string, error) {
	if in.oracle != nil {
		return in.oracle.evalBody(in, args, i)
	}
	return in.EvalCached(args[i])
}

// EvalScript runs a previously parsed script: lowered to bytecode on first
// use and executed by the VM. A script that does not compile fails with
// ErrCompile and runs nothing.
func (in *Interp) EvalScript(s *Script) (string, error) {
	if in.oracle != nil {
		return in.oracle.evalScript(in, s)
	}
	p, err := s.compiled()
	if err != nil {
		return "", err
	}
	return in.runVM(p)
}

// chargeStep accounts one command evaluation against the step budget and
// runs the yield/metering hooks: the VM's step op takes it whenever a
// budget, yield or hook can fire, and the loop builtins charge spin
// iterations through it, so step counts, budget error text, and
// preemption points have one source.
func (in *Interp) chargeStep(line int) error {
	in.Steps++
	if in.MaxSteps > 0 && in.Steps > in.MaxSteps {
		return fmt.Errorf("%w after %d steps (line %d)", ErrBudget, in.Steps-1, line)
	}
	if in.YieldEvery > 0 && in.Yield != nil && in.Steps%in.YieldEvery == 0 {
		in.Yield()
	}
	if in.StepHook != nil {
		if err := in.StepHook(); err != nil {
			return fmt.Errorf("tacl: line %d: %w", line, err)
		}
	}
	return nil
}

// decorate adds command/line context to an error once, leaving sentinel
// wrapping intact for errors.Is.
func decorate(err error, name string, line int) error {
	var pe *ParseError
	if errors.As(err, &pe) {
		return err
	}
	var ue *userError
	if errors.As(err, &ue) {
		return err
	}
	if strings.HasPrefix(err.Error(), "tacl: line ") {
		return err
	}
	return fmt.Errorf("tacl: line %d: %s: %w", line, name, err)
}

// isControl reports whether err is a control signal rather than an error:
// break and continue by exact identity (a break wrapped by expr's %w is an
// ordinary error), return, jump and park anywhere in the wrap chain. Control
// signals are never decorated and never trapped by catch — a caught park
// would keep running an agent whose continuation is already stored.
func isControl(err error) bool {
	return err == errBreak || err == errContinue || signalOf(err) != nil
}

// signalOf walks err's Unwrap chain for a return, jump or park signal and
// returns it, or nil. Type checks only: classifying an error allocates
// nothing, where errors.As targets escape to the heap.
func signalOf(err error) error {
	for err != nil {
		switch err.(type) {
		case *jumpSignal, *parkSignal:
			return err
		}
		if err == errReturn {
			return err
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return nil
		}
		err = u.Unwrap()
	}
	return nil
}

// currentFrame returns the active proc frame, or nil at top level (where
// variables are globals).
func (in *Interp) currentFrame() *frame {
	if len(in.frames) == 0 {
		return nil
	}
	return in.frames[len(in.frames)-1]
}

// parentFrame returns the frame below the current one (nil = top level,
// where variables are globals).
func (in *Interp) parentFrame() *frame {
	if len(in.frames) < 2 {
		return nil
	}
	return in.frames[len(in.frames)-2]
}

// curScope returns the variable scope commands in the current frame write
// to: the top frame's, or the interpreter's global scope at top level.
func (in *Interp) curScope() *varScope {
	if n := len(in.frames); n > 0 {
		return &in.frames[n-1].varScope
	}
	return &in.gscope
}

// resolveLoc follows upvar aliases and global links to the terminal scope
// and map that store a name reached from frame f. Whether the name then
// lives in a slot or the map is the terminal scope's layout's decision
// (slotOf), applied identically by every accessor below.
func (in *Interp) resolveLoc(f *frame, name string) (*varScope, map[string]string, string) {
	for depth := 0; f != nil && depth < maxDepth; depth++ {
		if ref, ok := f.aliases[name]; ok {
			f, name = ref.frame, ref.name
			continue
		}
		if f.global[name] {
			break
		}
		return &f.varScope, f.vars, name
	}
	return &in.gscope, in.globals, name
}

func (in *Interp) getVar(name string) (string, error) {
	sc, vars, key := in.resolveLoc(in.currentFrame(), name)
	if i := sc.slotOf(key); i >= 0 {
		if sc.meta[i]&slotLive != 0 {
			return sc.slots[i], nil
		}
		return "", fmt.Errorf("tacl: no such variable %q", name)
	}
	if v, ok := vars[key]; ok {
		return v, nil
	}
	return "", fmt.Errorf("tacl: no such variable %q", name)
}

func (in *Interp) setVar(name, value string) {
	sc, vars, key := in.resolveLoc(in.currentFrame(), name)
	if i := sc.slotOf(key); i >= 0 {
		sc.slots[i] = value
		sc.meta[i] = slotLive
		return
	}
	vars[key] = value
}

func (in *Interp) unsetVar(name string) error {
	sc, vars, key := in.resolveLoc(in.currentFrame(), name)
	if i := sc.slotOf(key); i >= 0 {
		if sc.meta[i]&slotLive == 0 {
			return fmt.Errorf("tacl: no such variable %q", name)
		}
		sc.slots[i] = ""
		sc.meta[i] = 0
		return nil
	}
	if _, ok := vars[key]; !ok {
		return fmt.Errorf("tacl: no such variable %q", name)
	}
	delete(vars, key)
	return nil
}

func (in *Interp) varExists(name string) bool {
	sc, vars, key := in.resolveLoc(in.currentFrame(), name)
	if i := sc.slotOf(key); i >= 0 {
		return sc.meta[i]&slotLive != 0
	}
	_, ok := vars[key]
	return ok
}

// bindGlobalScope binds the top-level scope to program p's variable layout
// and migrates any globals already set through the map (SetGlobal before
// the first eval — the kernel's host/from bindings) into their slots, so a
// slotted name is never stored in both places. Called by runVM on the first
// variable-bearing program of an activation; later top-level programs
// (catch/eval bodies, a second EvalScript) keep the established layout and
// reach slots through the name path.
func (in *Interp) bindGlobalScope(p *program) {
	sc := &in.gscope
	sc.bind(p)
	if len(in.globals) > 0 {
		for i, name := range p.varNames {
			if v, ok := in.globals[name]; ok {
				sc.slots[i] = v
				sc.meta[i] = slotLive
				delete(in.globals, name)
			}
		}
	}
}

// getFrame takes a frame from the freelist or allocates one. Frames are
// recycled LIFO with proc calls, so the maps a deep call tree allocates are
// paid for once per interpreter, not once per call.
func (in *Interp) getFrame() *frame {
	if n := len(in.freeFrames); n > 0 {
		f := in.freeFrames[n-1]
		in.freeFrames = in.freeFrames[:n-1]
		return f
	}
	return &frame{vars: make(map[string]string), global: make(map[string]bool)}
}

func (in *Interp) putFrame(f *frame) {
	f.vars = trimMapStr(f.vars)
	if len(f.global) > maxPooledVars {
		f.global = make(map[string]bool)
	} else if len(f.global) > 0 {
		clear(f.global)
	}
	f.aliases = nil
	f.clearScope()
	if cap(f.slots) > maxPooledSlots {
		f.slots = nil
		f.meta = nil
	}
	in.freeFrames = append(in.freeFrames, f)
}

func (in *Interp) callProc(p *procDef, args []string, line int) (string, error) {
	in.depth++
	if in.depth > maxDepth {
		in.depth--
		return "", fmt.Errorf("%w calling %q", ErrDepth, p.name)
	}
	defer func() { in.depth-- }()

	f := in.getFrame()
	// Bind the frame to the body's compiled layout before parameter
	// placement, so parameters land in their slots.
	sig := p.sig
	if len(sig.layout.varNames) > 0 {
		f.bind(sig.layout)
	}
	i := 0
	for pi, param := range sig.params {
		switch {
		case param.variadic:
			f.setParam(sig, pi, FormatList(args[i:]))
			i = len(args)
		case i < len(args):
			f.setParam(sig, pi, args[i])
			i++
		case param.hasDef:
			f.setParam(sig, pi, param.def)
		default:
			in.putFrame(f)
			return "", fmt.Errorf("tacl: line %d: proc %q missing argument %q", line, p.name, param.name)
		}
	}
	if i < len(args) {
		in.putFrame(f)
		return "", fmt.Errorf("tacl: line %d: proc %q given %d args, takes %d", line, p.name, len(args), len(sig.params))
	}

	in.frames = append(in.frames, f)
	defer func() {
		in.frames = in.frames[:len(in.frames)-1]
		in.putFrame(f)
	}()

	res, err := in.EvalScript(p.body)
	switch {
	case err == nil:
		return res, nil
	case err == errBreak || err == errContinue:
		return "", fmt.Errorf("tacl: %v escaped proc %q", err, p.name)
	case signalOf(err) == errReturn:
		v := in.retVal
		in.retVal = ""
		return v, nil
	default:
		return "", err
	}
}
