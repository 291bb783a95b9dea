package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"varbench/internal/xrand"
)

// ErrInjected marks every failure produced by the FaultInject wrapper, so
// tests (and retry policies) can classify injected faults with errors.Is
// without string matching.
var ErrInjected = errors.New("injected fault")

// A FaultInject wraps any Backend and fails scripted calls, turning the
// conformance suite and the collection engine into a fault-tolerance test
// rig without touching the engines themselves. Faults are scheduled per
// operation by a small DSL (see ParseFaultSchedule) against a per-op call
// counter, or drawn from a seeded Bernoulli stream — both fully
// deterministic, so a faulty run is reproducible bit for bit.
//
// Fault semantics per operation:
//
//   - put/putjson: the write fails with ErrInjected and never reaches the
//     inner backend — as if the medium rejected it.
//   - get: the lookup reports a miss (Get has no error channel), modeling a
//     read path that lost a record; getjson fails with ErrInjected.
//   - flush: the barrier fails with ErrInjected; previously accepted writes
//     keep whatever durability they already had.
//   - close: Close still closes the inner backend — a crashing shutdown
//     must not leak the flock — but reports ErrInjected.
//
// The zero schedule injects nothing: FaultInject is then a transparent
// proxy, which is exactly how the conformance suite exercises it.
type FaultInject struct {
	inner Backend

	mu    sync.Mutex
	rules []faultRule
	calls map[string]uint64
}

// faultRule is one parsed schedule clause. Counter rules fire when the op's
// 1-based call number lands in [from, to]; rate rules fire when the seeded
// Bernoulli draw for that call comes up under rate.
type faultRule struct {
	op       string
	from, to uint64 // counter window; to==MaxUint64 for open-ended "N+"
	rate     float64
	seed     uint64
	seeded   bool
}

// The schedulable operations.
var faultOps = map[string]bool{
	"put": true, "putjson": true, "get": true, "getjson": true,
	"flush": true, "close": true,
}

// NewFaultInject wraps inner with the given parsed schedule.
func NewFaultInject(inner Backend, rules []faultRule) *FaultInject {
	return &FaultInject{inner: inner, rules: rules, calls: make(map[string]uint64)}
}

// ParseFaultSchedule parses the fault DSL: semicolon-separated rules of the
// forms
//
//	op@N      fail the Nth call of op (1-based)
//	op@N-M    fail calls N through M inclusive
//	op@N+     fail every call from the Nth on
//	op~R/S    fail each call with probability R, drawn from seed S
//
// where op is one of put, putjson, get, getjson, flush, close. An empty
// schedule is valid and injects nothing. Examples: "put@4-7",
// "flush@1;put~0.2/42".
func ParseFaultSchedule(schedule string) ([]faultRule, error) {
	var rules []faultRule
	for _, clause := range strings.Split(schedule, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseFaultRule(clause)
		if err != nil {
			return nil, fmt.Errorf("store: fault schedule %q: %w", schedule, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

func parseFaultRule(clause string) (faultRule, error) {
	if op, spec, ok := strings.Cut(clause, "@"); ok {
		if !faultOps[op] {
			return faultRule{}, fmt.Errorf("rule %q: unknown op %q", clause, op)
		}
		r := faultRule{op: op}
		switch {
		case strings.HasSuffix(spec, "+"):
			n, err := strconv.ParseUint(strings.TrimSuffix(spec, "+"), 10, 64)
			if err != nil || n == 0 {
				return faultRule{}, fmt.Errorf("rule %q: want op@N+ with N ≥ 1", clause)
			}
			r.from, r.to = n, ^uint64(0)
		case strings.Contains(spec, "-"):
			lo, hi, _ := strings.Cut(spec, "-")
			from, err1 := strconv.ParseUint(lo, 10, 64)
			to, err2 := strconv.ParseUint(hi, 10, 64)
			if err1 != nil || err2 != nil || from == 0 || to < from {
				return faultRule{}, fmt.Errorf("rule %q: want op@N-M with 1 ≤ N ≤ M", clause)
			}
			r.from, r.to = from, to
		default:
			n, err := strconv.ParseUint(spec, 10, 64)
			if err != nil || n == 0 {
				return faultRule{}, fmt.Errorf("rule %q: want op@N with N ≥ 1", clause)
			}
			r.from, r.to = n, n
		}
		return r, nil
	}
	if op, spec, ok := strings.Cut(clause, "~"); ok {
		if !faultOps[op] {
			return faultRule{}, fmt.Errorf("rule %q: unknown op %q", clause, op)
		}
		rateStr, seedStr, ok := strings.Cut(spec, "/")
		if !ok {
			return faultRule{}, fmt.Errorf("rule %q: want op~RATE/SEED", clause)
		}
		rate, err1 := strconv.ParseFloat(rateStr, 64)
		seed, err2 := strconv.ParseUint(seedStr, 10, 64)
		if err1 != nil || err2 != nil || rate < 0 || rate > 1 {
			return faultRule{}, fmt.Errorf("rule %q: want op~RATE/SEED with RATE in [0, 1]", clause)
		}
		return faultRule{op: op, rate: rate, seed: seed, seeded: true}, nil
	}
	return faultRule{}, fmt.Errorf("rule %q: want op@N, op@N-M, op@N+ or op~RATE/SEED", clause)
}

// check advances op's call counter and reports whether this call faults.
func (f *FaultInject) check(op string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls[op]++
	n := f.calls[op]
	for _, r := range f.rules {
		if r.op != op {
			continue
		}
		if r.seeded {
			// One independent deterministic draw per (op, call): the stream
			// depends only on the rule's seed and the call number, never on
			// scheduling.
			draw := xrand.New(r.seed).Split(fmt.Sprintf("fault/%s/%d", op, n)).Float64()
			if draw < r.rate {
				return true
			}
			continue
		}
		if n >= r.from && n <= r.to {
			return true
		}
	}
	return false
}

func (f *FaultInject) injected(op string) error {
	return fmt.Errorf("store: %w: %s call %d", ErrInjected, op, f.callCount(op))
}

func (f *FaultInject) callCount(op string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[op]
}

// Get implements Backend; a faulted call reports a miss.
func (f *FaultInject) Get(key, fingerprint string) (float64, bool) {
	if f.check("get") {
		return 0, false
	}
	return f.inner.Get(key, fingerprint)
}

// Put implements Backend; a faulted call fails without reaching the inner
// backend.
func (f *FaultInject) Put(key, fingerprint string, score float64) error {
	if f.check("put") {
		return f.injected("put")
	}
	return f.inner.Put(key, fingerprint, score)
}

// GetJSON implements Backend; a faulted call fails with ErrInjected.
func (f *FaultInject) GetJSON(key, fingerprint string, v any) (bool, error) {
	if f.check("getjson") {
		return false, f.injected("getjson")
	}
	return f.inner.GetJSON(key, fingerprint, v)
}

// PutJSON implements Backend; a faulted call fails without reaching the
// inner backend.
func (f *FaultInject) PutJSON(key, fingerprint string, v any) error {
	if f.check("putjson") {
		return f.injected("putjson")
	}
	return f.inner.PutJSON(key, fingerprint, v)
}

// Len implements Backend, delegating to the inner backend.
func (f *FaultInject) Len() int { return f.inner.Len() }

// CountPrefix implements Backend, delegating to the inner backend.
func (f *FaultInject) CountPrefix(prefix string) int { return f.inner.CountPrefix(prefix) }

// Stats implements Backend, delegating to the inner backend.
func (f *FaultInject) Stats() (hits, misses int64) { return f.inner.Stats() }

// Flush implements Backend; a faulted barrier fails with ErrInjected.
func (f *FaultInject) Flush() error {
	if f.check("flush") {
		return f.injected("flush")
	}
	return f.inner.Flush()
}

// Close implements Backend. A faulted Close still closes the inner backend
// — the flock must be released even on a scripted crash — but reports the
// injected error (joined with the real close error, if any).
func (f *FaultInject) Close() error {
	if f.check("close") {
		err := f.inner.Close()
		if err != nil {
			return errors.Join(f.injected("close"), err)
		}
		return f.injected("close")
	}
	return f.inner.Close()
}
