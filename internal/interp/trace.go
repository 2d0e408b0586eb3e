package interp

import (
	"fmt"
	"strings"
)

// HaltState says how a run ended.
type HaltState uint8

const (
	// HaltRet: the function executed a ret.
	HaltRet HaltState = iota
	// HaltBudget: the step budget ran out. The trace is a prefix of the
	// (possibly infinite) full trace.
	HaltBudget
)

// String names the halt state.
func (h HaltState) String() string {
	switch h {
	case HaltRet:
		return "ret"
	case HaltBudget:
		return "budget"
	}
	return "unknown"
}

// EventKind classifies observable events.
type EventKind uint8

const (
	// EvStore is a program store (spill stores are not observable).
	EvStore EventKind = iota
	// EvCall is a call to an intrinsic stub.
	EvCall
)

// Event is one observable action of a run.
type Event struct {
	Kind EventKind
	// Addr/Val describe a store.
	Addr, Val int64
	// Sym/Args/Ret describe a call.
	Sym  string
	Args []int64
	Ret  int64
}

// String renders the event for divergence reports.
func (e Event) String() string {
	switch e.Kind {
	case EvStore:
		return fmt.Sprintf("store mem[%d] = %d", e.Addr, e.Val)
	case EvCall:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = fmt.Sprintf("%d", a)
		}
		return fmt.Sprintf("call %s(%s) = %d", e.Sym, strings.Join(args, ", "), e.Ret)
	}
	return "unknown event"
}

// Trace is the observable behavior of one run: the ordered store/call
// events, the return value, and how the run halted. Equality of traces
// is the oracle's definition of semantic equivalence. Event identity is
// tracked exactly via a running hash, so equality stays sound even
// past the retained-event bound.
type Trace struct {
	// Events holds the first MaxEvents events verbatim (for reports).
	Events []Event
	// NumEvents counts all events, retained or not.
	NumEvents uint64
	// Hash folds every event (kind, operands, order) into one digest.
	Hash uint64
	// Ret is the returned value (0 for a bare ret or budget halt).
	Ret int64
	// Halt says whether the run returned or ran out of budget.
	Halt HaltState
	// Steps counts executed instructions.
	Steps uint64

	max int
	h   hashState
}

// FNV-1a, 64-bit: cheap, deterministic and order-sensitive.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvString folds the bytes of s into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// fnvWord folds the 8 little-endian bytes of v into h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v>>(8*i))&0xff) * fnvPrime
	}
	return h
}

type hashState struct{ sum uint64 }

func (h *hashState) mix(vals ...uint64) {
	if h.sum == 0 {
		h.sum = fnvOffset
	}
	for _, v := range vals {
		h.sum = fnvWord(h.sum, v)
	}
}

func (t *Trace) record(e Event) {
	t.NumEvents++
	if len(t.Events) < t.max {
		t.Events = append(t.Events, e)
	}
}

func (t *Trace) store(addr, val int64) {
	t.h.mix(uint64(EvStore), uint64(addr), uint64(val))
	t.Hash = t.h.sum
	t.record(Event{Kind: EvStore, Addr: addr, Val: val})
}

// call records a call to an intrinsic stub. args is the caller's
// scratch, so the retained event gets its own copy.
func (t *Trace) call(sym string, args []int64, ret int64) {
	t.h.mix(uint64(EvCall), uint64(len(args)))
	for _, a := range args {
		t.h.mix(uint64(a))
	}
	t.h.mix(fnvString(fnvOffset, sym))
	t.Hash = t.h.sum
	t.record(Event{Kind: EvCall, Sym: sym, Args: append([]int64(nil), args...), Ret: ret})
}

// Intrinsic is the deterministic call stub: a pure function of the
// symbol name and argument values. Both sides of a differential run
// see identical stub results, so calls neither hide nor invent
// divergence.
func Intrinsic(sym string, args []int64) int64 {
	h := fnvString(fnvOffset, sym)
	for _, a := range args {
		h = fnvWord(h, uint64(a))
	}
	// Keep stub values small so generated programs that branch or
	// index memory on them stay well-behaved.
	return int64(h % 251)
}

// Equal reports whether two traces are observationally identical:
// same events in the same order (via count+hash), same halt state, and
// — for returning runs — the same return value.
func (t *Trace) Equal(o *Trace) bool {
	if t.NumEvents != o.NumEvents || t.Hash != o.Hash || t.Halt != o.Halt {
		return false
	}
	if t.Halt == HaltRet && t.Ret != o.Ret {
		return false
	}
	return true
}

// Diff describes the first observable difference between two traces,
// or "" when Equal. ref and got label the two sides in the report.
func (t *Trace) Diff(o *Trace, ref, got string) string {
	if t.Equal(o) {
		return ""
	}
	n := len(t.Events)
	if len(o.Events) < n {
		n = len(o.Events)
	}
	for i := 0; i < n; i++ {
		a, b := t.Events[i], o.Events[i]
		if a.String() != b.String() {
			return fmt.Sprintf("event %d: %s=%q %s=%q", i, ref, a.String(), got, b.String())
		}
	}
	if t.NumEvents != o.NumEvents {
		return fmt.Sprintf("event count: %s=%d %s=%d (first %d retained events agree)", ref, t.NumEvents, got, o.NumEvents, n)
	}
	if t.Halt != o.Halt {
		return fmt.Sprintf("halt state: %s=%s %s=%s", ref, t.Halt, got, o.Halt)
	}
	if t.Halt == HaltRet && t.Ret != o.Ret {
		return fmt.Sprintf("return value: %s=%d %s=%d", ref, t.Ret, got, o.Ret)
	}
	return fmt.Sprintf("trace hash: %s=%#x %s=%#x (divergence beyond the %d retained events)", ref, t.Hash, got, o.Hash, n)
}
