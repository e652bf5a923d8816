package sim

import (
	"fmt"
	"strconv"
	"strings"

	"rcons/internal/intern"
)

// TraceKind discriminates execution trace events.
type TraceKind int

const (
	// TraceRead is a register read; Detail holds the value read.
	TraceRead TraceKind = iota + 1
	// TraceWrite is a register write; Detail holds the value written.
	TraceWrite
	// TraceApply is an object update; Detail holds "op->response".
	TraceApply
	// TraceReadObj is an object state read; Detail holds the state.
	TraceReadObj
	// TraceCrash is a crash delivery.
	TraceCrash
	// TraceDecide is a process producing its output; Detail holds it.
	TraceDecide
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceRead:
		return "read"
	case TraceWrite:
		return "write"
	case TraceApply:
		return "apply"
	case TraceReadObj:
		return "readobj"
	case TraceCrash:
		return "crash"
	case TraceDecide:
		return "decide"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one entry in an execution log.
type TraceEvent struct {
	Kind   TraceKind
	Proc   int
	Cell   string // register or object name; empty for crash/decide
	Detail string
}

// String renders the event compactly, e.g. "p2 write R_A=5".
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceCrash:
		return fmt.Sprintf("p%d CRASH", e.Proc)
	case TraceDecide:
		return fmt.Sprintf("p%d decide %s", e.Proc, e.Detail)
	case TraceWrite:
		return fmt.Sprintf("p%d write %s=%s", e.Proc, e.Cell, e.Detail)
	case TraceRead:
		return fmt.Sprintf("p%d read %s=%s", e.Proc, e.Cell, e.Detail)
	case TraceApply:
		return fmt.Sprintf("p%d apply %s.%s", e.Proc, e.Cell, e.Detail)
	case TraceReadObj:
		return fmt.Sprintf("p%d readobj %s=%s", e.Proc, e.Cell, e.Detail)
	default:
		return fmt.Sprintf("p%d %s %s %s", e.Proc, e.Kind, e.Cell, e.Detail)
	}
}

// String renders the action compactly: "s0" (step of p0), "c0" (crash of
// p0), "C*" (simultaneous crash).
func (a Action) String() string {
	switch a.Kind {
	case ActStep:
		return fmt.Sprintf("s%d", a.Proc)
	case ActCrash:
		return fmt.Sprintf("c%d", a.Proc)
	case ActCrashAll:
		return "C*"
	default:
		return fmt.Sprintf("?%d", int(a.Kind))
	}
}

// FormatScript renders a schedule compactly, e.g. "s0 s1 c0 s0".
func FormatScript(script []Action) string {
	if len(script) == 0 {
		return "(empty)"
	}
	parts := make([]string, len(script))
	for i, a := range script {
		parts[i] = a.String()
	}
	return strings.Join(parts, " ")
}

// FormatTrace renders a trace one event per line, for test failure
// diagnostics.
func FormatTrace(events []TraceEvent) string {
	var b strings.Builder
	for i, e := range events {
		fmt.Fprintf(&b, "%4d  %s\n", i, e)
	}
	return b.String()
}

// ParseScript parses the compact schedule notation produced by
// FormatScript ("s0 s1 c0 C*") back into actions. It accepts the
// "(empty)" placeholder and arbitrary whitespace between actions, so
// recorded counterexamples round-trip through their textual golden form.
func ParseScript(s string) ([]Action, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "(empty)" {
		return nil, nil
	}
	var out []Action
	for _, tok := range strings.Fields(s) {
		switch {
		case tok == "C*":
			out = append(out, CrashAll())
		case len(tok) >= 2 && (tok[0] == 's' || tok[0] == 'c'):
			p, err := strconv.Atoi(tok[1:])
			if err != nil || p < 0 {
				return nil, fmt.Errorf("sim: bad script token %q", tok)
			}
			if tok[0] == 's' {
				out = append(out, Step(p))
			} else {
				out = append(out, Crash(p))
			}
		default:
			return nil, fmt.Errorf("sim: bad script token %q", tok)
		}
	}
	return out, nil
}

// event is one execution event as note receives it: the names the
// trace renders, and the interned ids the digests fold. d1 carries the
// event detail; d2 is the response part of an apply (the trace renders
// it as "op->resp"). Register events carry d1's id, which the cell
// keeps; note interns the details of apply and readobj events itself,
// and only when it folds them.
type event struct {
	kind   TraceKind
	cell   string
	cellID uint32
	d1, d2 string
	d1ID   uint32
}

// note records one event of process proc: into the trace when trace
// recording is enabled, and into the per-process rolling digests when
// digest recording is enabled. Keeping the two consumers behind one
// entry point guarantees the digest's global event positions always
// match trace indices — the property the model checker's
// clock-sensitive fingerprints and their parity tests rely on.
func (r *Runner) note(proc int, e event) {
	if r.recordTrace {
		detail := e.d1
		if e.kind == TraceApply {
			detail = e.d1 + "->" + e.d2
		}
		r.trace = append(r.trace, TraceEvent{Kind: e.kind, Proc: proc, Cell: e.cell, Detail: detail})
	}
	if !r.recordDigest {
		return
	}
	pos := r.eventPos
	r.eventPos++
	switch e.kind {
	case TraceCrash:
		// The history "since the last crash" restarts empty, exactly as
		// the legacy fingerprint clears its per-process event list.
		r.evHash[proc] = 0
		r.ckHash[proc] = 0
	case TraceDecide:
		// Decisions enter fingerprints through Outcome.Decisions; the
		// event still occupies a global position (it is in the trace).
	default:
		d1ID := e.d1ID
		if e.kind == TraceApply || e.kind == TraceReadObj {
			d1ID = r.ids.ID(e.d1)
		}
		d := intern.MixPair(intern.MixPair(uint64(e.kind), uint64(e.cellID)), uint64(d1ID))
		if e.kind == TraceApply {
			d = intern.MixPair(d, uint64(r.ids.ID(e.d2)))
		}
		r.evHash[proc] = intern.MixPair(r.evHash[proc], d)
		r.ckHash[proc] = intern.MixPair(r.ckHash[proc], intern.MixPair(d, uint64(pos)))
	}
}
