// Package reuse keeps the scratch memory of one LP solve for the next: a
// free list that holds idle buffers between solves, and the growth policy
// of the slices inside them. The serving daemon's handlers draw their
// request and response buffers, with the JSON encoder that fills them,
// from a free list too. LRU is the bounded cache that keeps a resolved
// topology, a path cache or a served cell for the next request that
// names it.
package reuse

import (
	"runtime"
	"sync"
)

// Grow returns buf resliced to n, reallocated with a quarter to spare
// when it is too small; what a reused buf holds is left for the caller to
// overwrite or clear. The spare lets a run of slowly widening problems
// (the path solver's growth rounds) reallocate only now and then.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
	}
	return buf[:n]
}

// List is a free list of *T that every goroutine reaches. A sync.Pool
// does not serve here: it parks a value put on one P in a slot no other
// P can take it from, so a solve that resumes on another P after a
// collection regrows its buffers from nothing. Like a sync.Pool, a List
// lets go of what sits idle: each collection turns the idle values into
// victims and drops the victims of the collection before, so a value
// unused across two collections is freed. The zero value is ready to use.
type List[T any] struct {
	mu     sync.Mutex
	idle   []*T // guarded by mu
	victim []*T // guarded by mu: idle through the last collection
	armed  bool // guarded by mu: age runs after the next collection
}

// Get returns an idle value, the most recently put first, or a new zero
// one when none is idle.
func (l *List[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range [...]*[]*T{&l.idle, &l.victim} {
		if n := len(*s); n > 0 {
			x := (*s)[n-1]
			(*s)[n-1] = nil
			*s = (*s)[:n-1]
			return x
		}
	}
	return new(T)
}

// Put hands x back for a later Get; the caller must not use it after.
func (l *List[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idle = append(l.idle, x)
	if !l.armed {
		l.armed = true
		afterCollection(l.age)
	}
}

// age runs once per collection while the list holds anything.
func (l *List[T]) age() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.victim, l.idle = l.idle, nil
	l.armed = len(l.victim) > 0
	if l.armed {
		afterCollection(l.age)
	}
}

// afterCollection calls f, on the finalizer goroutine, once the next
// garbage collection has finished.
func afterCollection(f func()) {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) { f() })
}

// gcTick holds a pointer so that the tiny allocator, whose batched
// objects may keep a finalizer from running, never places it.
type gcTick struct{ _ *byte }
