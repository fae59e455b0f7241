package obs

// ring is a bounded buffer that overwrites its oldest element once full
// — the storage behind Journal and SlowRing. It is not safe for
// concurrent use: each owner guards it with its own mutex.
type ring[T any] struct {
	buf []T
	// pushed counts every push ever made, overwritten elements included;
	// the element from push i (0-based) sits at buf[i % len(buf)].
	pushed int64
}

// newRing returns a ring retaining the last n elements, n > 0.
func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, n)} }

// push appends v, overwriting the oldest element when full.
func (r *ring[T]) push(v T) {
	r.buf[r.pushed%int64(len(r.buf))] = v
	r.pushed++
}

// from returns the retained elements from push i onwards, oldest first,
// at most limit (limit <= 0 means all). Nil when none qualifies.
func (r *ring[T]) from(i int64, limit int) []T {
	i = max(i, r.pushed-int64(len(r.buf)), 0)
	end := r.pushed
	if limit > 0 {
		end = min(end, i+int64(limit))
	}
	if i >= end {
		return nil
	}
	out := make([]T, 0, end-i)
	for ; i < end; i++ {
		out = append(out, r.buf[i%int64(len(r.buf))])
	}
	return out
}
