package reuse

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestGrow(t *testing.T) {
	buf := Grow([]int(nil), 8)
	if len(buf) != 8 || cap(buf) != 10 {
		t.Fatalf("Grow(nil, 8): len %d cap %d, want 8 and 10", len(buf), cap(buf))
	}
	buf[0] = 7
	if again := Grow(buf, 10); &again[0] != &buf[0] || again[0] != 7 {
		t.Fatal("Grow within capacity reallocated or cleared the buffer")
	}
}

// TestListReachesEveryGoroutine puts values from many goroutines and
// takes them back from one: every value put is handed out again before
// the list allocates a new one.
func TestListReachesEveryGoroutine(t *testing.T) {
	var l List[int]
	put := make(map[*int]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := new(int)
			mu.Lock()
			put[x] = true
			mu.Unlock()
			l.Put(x)
		}()
	}
	wg.Wait()
	for range put {
		if x := l.Get(); !put[x] {
			t.Fatal("Get allocated while a put value was idle")
		}
	}
	if x := l.Get(); put[x] {
		t.Fatal("Get handed out a value twice")
	}
}

// TestListLetsGoOfIdleValues checks that a value survives one collection
// and is dropped after it sits idle through later ones.
func TestListLetsGoOfIdleValues(t *testing.T) {
	var l List[int]
	x := new(int)
	l.Put(x)
	if l.Get() != x {
		t.Fatal("Get did not return the idle value")
	}
	l.Put(x)
	held := func() int {
		l.mu.Lock()
		defer l.mu.Unlock()
		return len(l.idle) + len(l.victim)
	}
	for i := 0; i < 200; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // let the finalizer goroutine age the list
		if held() == 0 {
			return
		}
	}
	t.Fatalf("list still holds %d values after 200 collections", held())
}
