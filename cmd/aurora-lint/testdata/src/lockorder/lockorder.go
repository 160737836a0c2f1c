// Package lockorder exercises the lockorder analyzer: Forward takes A.mu
// then B.mu while Backward reaches A.mu under B.mu through a helper (an
// inversion, reported once); Relock re-acquires A.mu on its own receiver.
package lockorder

import "sync"

// A guards a with mu.
type A struct {
	mu sync.Mutex
	a  int
}

// B guards b with mu.
type B struct {
	mu sync.Mutex
	b  int
}

// Pair owns one instance of each lock class.
type Pair struct {
	x *A
	y *B
}

// Forward nests B.mu under A.mu.
func (p *Pair) Forward() int {
	p.x.mu.Lock()
	defer p.x.mu.Unlock()
	p.y.mu.Lock()
	defer p.y.mu.Unlock()
	return p.x.a + p.y.b
}

// Backward nests A.mu (through readA) under B.mu.
func (p *Pair) Backward() int {
	p.y.mu.Lock()
	defer p.y.mu.Unlock()
	return p.readA() + p.y.b
}

func (p *Pair) readA() int {
	p.x.mu.Lock()
	defer p.x.mu.Unlock()
	return p.x.a
}

// Get takes A.mu on its own receiver.
func (x *A) Get() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.a
}

func (x *A) getTwice() int { return x.Get() + x.Get() }

// Relock calls back into its own receiver's locking accessor with mu
// held: the same instance, so a certain self-deadlock.
func (x *A) Relock() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.a + x.getTwice()
}

// Merge holds two instances of the same class: x's own lock and, via
// other.Get, other's. Different instances are not a re-lock.
func (x *A) Merge(other *A) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.a + other.Get()
}

// Unlocked releases before calling the accessor: clean.
func (x *A) Unlocked() int {
	x.mu.Lock()
	a := x.a
	x.mu.Unlock()
	return a + x.Get()
}
