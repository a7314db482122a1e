package tacl

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Reflection-free host bridge. The bytecode compiler resolves command names
// to process-wide symbols at compile time; each published table snapshot
// carries a dense []CmdFunc indexed by symbol id, so a host-command call in
// the VM is an atomic load plus an array index instead of a per-call map
// lookup. Per-activation overrides (Interp.Register, as the guard's Bind
// uses) and script-defined procs still win: the VM checks those maps first
// — the procs map only for symbols some proc definition has marked.
// Table.Register invalidates every inline cache at once by publishing a new
// snapshot.

// symbol is an interned command name. Symbols are process-wide and never
// freed; ids index the dense dispatch slot on each table snapshot.
type symbol struct {
	name string
	id   int32
	// isProc is set once any interpreter defines a proc under this name;
	// until then static dispatch skips the per-interpreter procs map.
	isProc atomic.Bool
}

var symtab = struct {
	mu sync.RWMutex
	m  map[string]*symbol
	n  int32
}{m: make(map[string]*symbol, 128)}

// maxScriptSyms caps how many symbols untrusted script compilation can
// intern. Host registration (builtins, site tables) interns without a cap;
// a hostile script full of distinct unknown command names compiles those
// calls to dynamic dispatch instead of growing the symbol table forever.
const maxScriptSyms = 1 << 13

func internSymLocked(name string) *symbol {
	s := symtab.m[name]
	if s == nil {
		s = &symbol{name: name, id: symtab.n}
		symtab.n++
		symtab.m[name] = s
	}
	return s
}

// internScriptSym interns a command name seen in script source, or returns
// nil once the script-driven portion of the symbol table is full (the
// compiler then emits a dynamic call for that command).
func internScriptSym(name string) *symbol {
	symtab.mu.RLock()
	s := symtab.m[name]
	symtab.mu.RUnlock()
	if s != nil {
		return s
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if s := symtab.m[name]; s != nil {
		return s
	}
	if symtab.n >= maxScriptSyms {
		return nil
	}
	return internSymLocked(name)
}

// Canonical control-flow builtins the compiler may inline. A table (or
// interpreter) that overrides one of these names clears the corresponding
// canon bit on its snapshot, and the VM's guard op falls back to generic
// dispatch for that construct.
const (
	kindIf = iota
	kindWhile
	kindFor
	kindForeach
	kindExpr
	kindSet
	kindIncr
	numCanonKinds
)

// canonNames mirrors canonicalBuiltins' names without referencing the
// builtin funcs: cmdShadowed (reachable from every builtin via runVM) needs
// the names at runtime, and referencing canonicalBuiltins there would form
// an initialization cycle through its cmd* function pointers.
var canonNames = [numCanonKinds]string{
	kindIf:      "if",
	kindWhile:   "while",
	kindFor:     "for",
	kindForeach: "foreach",
	kindExpr:    "expr",
	kindSet:     "set",
	kindIncr:    "incr",
}

var canonicalBuiltins = [numCanonKinds]struct {
	name string
	ptr  uintptr
}{
	kindIf:      {"if", reflect.ValueOf(cmdIf).Pointer()},
	kindWhile:   {"while", reflect.ValueOf(cmdWhile).Pointer()},
	kindFor:     {"for", reflect.ValueOf(cmdFor).Pointer()},
	kindForeach: {"foreach", reflect.ValueOf(cmdForeach).Pointer()},
	kindExpr:    {"expr", reflect.ValueOf(cmdExpr).Pointer()},
	kindSet:     {"set", reflect.ValueOf(cmdSet).Pointer()},
	kindIncr:    {"incr", reflect.ValueOf(cmdIncr).Pointer()},
}

// buildTableState builds a publishable snapshot for cmds: it interns every
// command name (host registration is trusted, so no cap), fills the dense
// symbol-indexed dispatch array, and records which inlinable builtins are
// still canonical. Cold path: runs only on NewTable/Register, never per
// command evaluation.
func buildTableState(cmds map[string]CmdFunc) *tableState {
	symtab.mu.Lock()
	for name := range cmds {
		internSymLocked(name)
	}
	dense := make([]CmdFunc, symtab.n)
	for name, s := range symtab.m {
		if fn, ok := cmds[name]; ok {
			dense[s.id] = fn
		}
	}
	symtab.mu.Unlock()
	var canon uint16
	for k, cb := range canonicalBuiltins {
		if fn, ok := cmds[cb.name]; ok && reflect.ValueOf(fn).Pointer() == cb.ptr {
			canon |= 1 << k
		}
	}
	return &tableState{cmds: cmds, dense: dense, canon: canon}
}

// byteArena bump-allocates small strings out of append-only pages. Pages
// are never rewritten or recycled — once handed out, a string view stays
// valid for its own lifetime and the page is garbage-collected when the
// last string into it dies — so the unsafe.String aliasing below is sound.
// It amortizes the one-allocation-per-result cost of hot string-producing
// commands (format) down to one page allocation per ~thousand results.
type byteArena struct {
	page []byte
}

const (
	arenaPageSize = 8 << 10
	// Strings larger than this get a private allocation; copying them into
	// a page would let one big result pin kilobytes of neighbors.
	arenaMaxCopy = arenaPageSize / 4
)

func (a *byteArena) copyString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > arenaMaxCopy {
		return string(b)
	}
	if cap(a.page)-len(a.page) < len(b) {
		a.page = make([]byte, 0, arenaPageSize)
	}
	off := len(a.page)
	a.page = append(a.page, b...)
	v := a.page[off : off+len(b)]
	return unsafe.String(&v[0], len(v))
}

// copyBytes returns an arena-backed copy of s with clipped capacity, so the
// new owner can never observe later arena appends (an append would reallocate).
func (a *byteArena) copyBytes(s string) []byte {
	if len(s) > arenaMaxCopy {
		return []byte(s)
	}
	if cap(a.page)-len(a.page) < len(s) {
		a.page = make([]byte, 0, arenaPageSize)
	}
	off := len(a.page)
	a.page = append(a.page, s...)
	return a.page[off : off+len(s) : off+len(s)]
}

// ArenaBytes returns a copy of s backed by the interpreter's append-only
// arena, owned by the caller. Pages are never rewritten or recycled, which
// makes the result safe to hand to Folder.PushOwned: a hot briefcase push
// costs no per-call allocation. An element retained long after the
// activation pins at most one arena page — the same deal folder decode
// buffers already make.
func (in *Interp) ArenaBytes(s string) []byte { return in.arena.copyBytes(s) }

// fastFormat is cmdFormat's allocation-free fast path: flag-free %s/%d/%%
// verbs with clean integer arguments, built in the interpreter's scratch
// buffer and returned through the arena. Anything else — flags, widths,
// float verbs, arity errors, integers needing TrimSpace or float fallback —
// bails to the reference implementation, so output and error text are
// byte-identical to the slow path in every case this function handles.
func fastFormat(in *Interp, spec string, vals []string) (string, bool) {
	buf := in.fmtBuf[:0]
	vi := 0
	for i := 0; i < len(spec); i++ {
		c := spec[i]
		if c != '%' {
			buf = append(buf, c)
			continue
		}
		i++
		if i >= len(spec) {
			return "", false
		}
		switch spec[i] {
		case '%':
			buf = append(buf, '%')
		case 'd':
			if vi >= len(vals) {
				return "", false
			}
			n, ok := fastAtoi(vals[vi])
			if !ok {
				var err error
				n, err = strconv.ParseInt(vals[vi], 10, 64)
				if err != nil {
					return "", false
				}
			}
			buf = strconv.AppendInt(buf, n, 10)
			vi++
		case 's':
			if vi >= len(vals) {
				return "", false
			}
			buf = append(buf, vals[vi]...)
			vi++
		default:
			return "", false
		}
	}
	if vi != len(vals) {
		return "", false
	}
	in.fmtBuf = buf
	return in.arena.copyString(buf), true
}

// intText renders an integer result. 0–99 come from strconv's static table
// and cost nothing; larger values are formatted into the scratch buffer and
// copied into the arena, so a hot arithmetic loop allocates one page per
// ~thousand results instead of one string per result.
func (in *Interp) intText(n int64) string {
	if n >= 0 && n < 100 {
		return strconv.FormatInt(n, 10)
	}
	in.fmtBuf = strconv.AppendInt(in.fmtBuf[:0], n, 10)
	return in.arena.copyString(in.fmtBuf)
}
