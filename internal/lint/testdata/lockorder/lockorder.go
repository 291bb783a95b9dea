// Package lockorder exercises the lockorder analyzer: blocking under a
// mutex on hot paths (direct and via the call graph), non-blocking kick
// idioms, cond.Wait exemption, self-deadlock, and the global
// acquisition-order graph.
package lockorder

import (
	"os"
	"sync"
	"time"
)

type Cache struct {
	mu    sync.Mutex
	bufMu sync.Mutex
	f     *os.File
	kick  chan struct{}
	cond  *sync.Cond
}

// Put is a hot root by name; append and flushNow are hot by call-graph
// reachability.
func (c *Cache) Put(b []byte) {
	c.append(b)
	c.flushNow()
}

func (c *Cache) append(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f.Sync() // want `\[lockorder\] fsync \(\(\*os\.File\)\.Sync\) while holding c\.mu on a store hot path`
}

// Get blocks on a bare send while holding the lock.
func (c *Cache) Get(out chan []byte) {
	c.mu.Lock()
	out <- nil // want `\[lockorder\] channel send while holding c\.mu on a store hot path`
	c.mu.Unlock()
}

// PutJSON parks on a default-less select while holding the lock.
func (c *Cache) PutJSON() {
	c.mu.Lock()
	select { // want `\[lockorder\] select with no default case while holding c\.mu`
	case <-c.kick:
	}
	c.mu.Unlock()
}

// GetJSON kicks the committer without blocking: a select WITH a default
// under the lock is the sanctioned idiom.
func (c *Cache) GetJSON() {
	c.bufMu.Lock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	c.bufMu.Unlock()
}

// Flush waits on a condition variable: Cond.Wait releases the mutex while
// waiting and is exempt by design.
func (c *Cache) Flush() {
	c.mu.Lock()
	for c.f == nil {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// sync is a single-file writer's fsync-under-mu, with the reasoned escape
// hatch instead of a restructure; reached from Put via flushNow.
func (c *Cache) flushNow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.f.Sync() //lint:allow lockorder(single-writer fsync under mu: the fsync is the serialized commit)
}

// cold is unreachable from any hot root: sleeping under the lock is not
// this analyzer's business outside the hot path.
func (c *Cache) cold() {
	c.mu.Lock()
	time.Sleep(time.Millisecond)
	c.mu.Unlock()
}

// relock deadlocks against itself regardless of hot-path gating.
func (c *Cache) relock() {
	c.mu.Lock()
	c.mu.Lock() // want `\[lockorder\] mutex c\.mu locked while already held on this path: self-deadlock`
	c.mu.Unlock()
	c.mu.Unlock()
}

// stageThenCommit and commitThenStage acquire the two locks in opposite
// orders: each inner acquisition completes the cycle.
func (c *Cache) stageThenCommit() {
	c.mu.Lock()
	c.bufMu.Lock() // want `\[lockorder\] lock order inversion: acquiring Cache\.bufMu while holding Cache\.mu completes the cycle Cache\.mu → Cache\.bufMu → Cache\.mu`
	c.bufMu.Unlock()
	c.mu.Unlock()
}

func (c *Cache) commitThenStage() {
	c.bufMu.Lock()
	c.mu.Lock() // want `\[lockorder\] lock order inversion: acquiring Cache\.mu while holding Cache\.bufMu completes the cycle Cache\.bufMu → Cache\.mu → Cache\.bufMu`
	c.mu.Unlock()
	c.bufMu.Unlock()
}

// transfer takes the same lock class on two instances with no order.
func transfer(a, b *Cache) {
	a.mu.Lock()
	b.mu.Lock() // want `\[lockorder\] two Cache\.mu mutexes \(a\.mu, then b\.mu\) acquired together with no defined order`
	b.mu.Unlock()
	a.mu.Unlock()
}

// release pairs cleanly: lock, unlock, then block — no finding.
func (c *Cache) release(out chan []byte) {
	c.mu.Lock()
	c.mu.Unlock()
	out <- nil
}

func init() {
	_ = (&Cache{}).cold
	_ = (&Cache{}).relock
	_ = (&Cache{}).stageThenCommit
	_ = (&Cache{}).commitThenStage
	_ = (&Cache{}).flushNow
	_ = transfer
	_ = (&Cache{}).release
}
