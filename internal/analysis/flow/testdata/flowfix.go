// Package flowfix is the fixture for the flow summary unit tests: each
// function exercises exactly one fact the summaries must record —
// an allocation kind, a spawn, a signal.
package flowfix

import (
	"context"
	"sync"
)

// MakeMap allocates with make.
func MakeMap(n int) map[int]int { return make(map[int]int, n) }

// Grow may grow its argument's backing array.
func Grow(xs []int) []int { return append(xs, 1) }

// Box stores an int in an interface.
func Box(v int) int {
	var i interface{} = v
	n, _ := i.(int)
	return n
}

// Convert copies a string into a byte slice.
func Convert(s string) []byte { return []byte(s) }

// Concat builds a new string.
func Concat(a, b string) string { return a + b }

// RangeMap iterates a map.
func RangeMap(m map[int]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// CallsMake has no direct allocation but reaches one through MakeMap.
func CallsMake(n int) int { return len(MakeMap(n)) }

// Pure neither allocates nor calls anything that does.
func Pure(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Leak returns its pointer argument without allocating.
func Leak(p *int) *int { return p }

// Keep only reads through its pointer argument.
func Keep(p *int) int { return *p }

// Spinner spawns a goroutine with no termination signal.
func Spinner() {
	go func() {
		for {
		}
	}()
}

// WatchCtx spawns a goroutine that observes its context.
func WatchCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Tracked spawns a goroutine that signals a WaitGroup.
func Tracked(wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
	}()
}

// Server owns a goroutine whose stop signal sits one call down.
type Server struct{ done chan struct{} }

func (s *Server) loop() { <-s.done }

// Run spawns loop; its termination signal is transitive.
func (s *Server) Run() { go s.loop() }
