package store

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"varbench/internal/jsonx"
)

// Mem is the in-memory Backend: the full store semantics — cell identity,
// last-record-wins, fingerprint rejection, payload isolation, ErrClosed —
// with no files behind them. Nothing survives the process; Flush is a
// no-op barrier. It is the right backend for tests, benchmarks that must
// not measure the filesystem, and deliberately ephemeral runs (DSN "mem:").
type Mem struct {
	mu     sync.Mutex
	idx    index
	closed bool

	hits   atomic.Int64
	misses atomic.Int64
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{}
}

// Get returns the score recorded for (key, fingerprint), if any.
func (m *Mem) Get(key, fingerprint string) (float64, bool) {
	m.mu.Lock()
	v, ok := m.idx.score(key, fingerprint)
	m.mu.Unlock()
	if !ok {
		m.misses.Add(1)
		return 0, false
	}
	m.hits.Add(1)
	return v, true
}

// Put records one trial score. The float is kept verbatim, so every bit
// pattern — NaN, ±Inf, -0 — round-trips exactly.
func (m *Mem) Put(key, fingerprint string, score float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("store: mem: %w", ErrClosed)
	}
	m.idx.set(segKindScore, key, fingerprint, score, nil)
	return nil
}

// GetJSON decodes the JSON payload recorded for (key, fingerprint) into v.
func (m *Mem) GetJSON(key, fingerprint string, v any) (bool, error) {
	m.mu.Lock()
	raw, ok := m.idx.payload(key, fingerprint)
	m.mu.Unlock()
	if !ok {
		m.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		m.misses.Add(1)
		return false, fmt.Errorf("store: mem: payload for %q: %w", key, err)
	}
	m.hits.Add(1)
	return true, nil
}

// PutJSON records one JSON payload. Marshalling at Put time (not Get time)
// snapshots v — later mutations of the caller's value cannot leak into the
// store — and matches the durable backends' NaN-as-null encoding.
func (m *Mem) PutJSON(key, fingerprint string, v any) error {
	raw, err := jsonx.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: mem: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("store: mem: %w", ErrClosed)
	}
	m.idx.set(segKindJSON, key, fingerprint, 0, raw)
	return nil
}

// Len returns the number of distinct (key, fingerprint) cells.
func (m *Mem) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idx.count("")
}

// CountPrefix returns the number of distinct cells whose key starts with
// prefix.
func (m *Mem) CountPrefix(prefix string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.idx.count(prefix)
}

// Stats returns how many Get/GetJSON lookups hit and missed since NewMem.
func (m *Mem) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Flush is the durability barrier; memory is the durable medium here, so
// it only checks for Close.
func (m *Mem) Flush() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("store: mem: %w", ErrClosed)
	}
	return nil
}

// Close marks the store closed: writes fail with ErrClosed, reads keep
// serving the index. Idempotent.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
