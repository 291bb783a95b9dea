package store

import "errors"

// ErrClosed is returned by writes (Put, PutJSON, Flush) on a closed
// backend. Reads are deliberately NOT in that contract: Get and GetJSON
// keep serving the in-memory index after Close — the log is only consulted
// at Open — so readers draining a pipeline never race a shutdown path's
// Close. Check with errors.Is; backends may wrap it with location context.
var ErrClosed = errors.New("store is closed")

// ErrLocked is returned by OpenSegLog when another live process holds the
// store's advisory lock. It is transient by nature — the lock drops the
// moment the other process exits — which makes it the canonical retryable
// open error (the varbench CLI's -wait-lock flag retries exactly this).
// Check with errors.Is.
var ErrLocked = errors.New("store is locked")

// Backend is the trial-store contract every storage engine implements: a
// durable (or deliberately ephemeral) map from (key, fingerprint) cells to
// either a float64 score or a JSON payload, with last-record-wins
// semantics. varbench's collection engine, its failure records and the
// compare/variance CLIs all speak this interface and nothing more; OpenSegLog/NewMem/NewFaultInject (or the OpenDSN factory) pick the
// engine.
//
// Semantics every backend must honor — the conformance suite in
// conformance_test.go pins them, run it against any new backend:
//
//   - Identity: a cell is (key, fingerprint). A record under the same key
//     but a different fingerprint is a different cell; Get/GetJSON never
//     serve across fingerprints (stale-spec rejection).
//   - Last record wins: re-putting a cell replaces its visible value, both
//     live and across reopen for durable backends.
//   - Bit-exact floats: Put/Get round-trip every float64 bit pattern,
//     including NaN and ±Inf, live and across reopen.
//   - Payload isolation: a PutJSON cell is invisible to Get and a Put cell
//     to GetJSON. PutJSON encodes non-finite floats in the payload as null
//     (see internal/jsonx) rather than failing.
//   - Concurrency: all methods are safe for concurrent use; collection
//     worker pools call Get and Put from many goroutines at once.
//   - Durability: Put makes a record visible immediately but durable only
//     at the backend's documented commit point. Flush is the explicit
//     barrier — when it returns, every previously accepted write has
//     reached the backend's durable medium. For seglog, Puts coalesce in
//     memory until the group committer's size/interval policy, a Flush, or
//     Close commits them; for mem both are no-ops on an open store.
//   - Close: flushes pending writes, releases the log, and is idempotent.
//     After Close, writes fail with ErrClosed and reads keep serving the
//     in-memory index.
type Backend interface {
	// Get returns the score recorded for (key, fingerprint), if any.
	Get(key, fingerprint string) (float64, bool)
	// Put records one trial score for (key, fingerprint).
	Put(key, fingerprint string, score float64) error
	// GetJSON decodes the JSON payload recorded for (key, fingerprint)
	// into v. It reports whether a payload was found; a found-but-
	// undecodable payload returns an error.
	GetJSON(key, fingerprint string, v any) (bool, error)
	// PutJSON records one JSON payload — e.g. a failure record or compare's
	// cached result — for (key, fingerprint). Non-finite floats in v are
	// encoded as null.
	PutJSON(key, fingerprint string, v any) error
	// Len returns the number of distinct (key, fingerprint) cells.
	Len() int
	// CountPrefix returns the number of distinct cells whose key starts
	// with prefix — e.g. "trial/" or "failure/".
	CountPrefix(prefix string) int
	// Stats returns how many Get/GetJSON lookups hit and missed since the
	// backend was opened.
	Stats() (hits, misses int64)
	// Flush is the durability barrier: every write accepted before Flush
	// is durable when it returns. On a closed backend it fails with
	// ErrClosed.
	Flush() error
	// Close flushes pending writes and releases the backend. Idempotent.
	Close() error
}

// The three shipped backends satisfy the contract.
var (
	_ Backend = (*Mem)(nil)
	_ Backend = (*SegLog)(nil)
	_ Backend = (*FaultInject)(nil)
)
