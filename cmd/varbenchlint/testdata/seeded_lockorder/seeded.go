// Package seeded carries a deliberate lock-order inversion: the two
// methods acquire the same pair of mutexes in opposite orders. The
// integration tests feed this package to varbenchlint, demanding a
// lockorder finding and exit 1.
package seeded

import "sync"

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

var _ = (&pair{}).ab
var _ = (&pair{}).ba
