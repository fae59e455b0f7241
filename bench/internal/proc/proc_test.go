package proc

import (
	"testing"
	"time"
)

const heapProfile = `heap profile: 1: 24 [5: 1048] @ heap/1048576
1: 24 [1: 24] @ 0x4a5b1c 0x4a5b0f

# runtime.MemStats
# Alloc = 2463648
# TotalAlloc = 981234567
# Sys = 14271760
# Mallocs = 4455
# Frees = 1203
# PauseNs = [10500 20250 0 0]
# NumGC = 2
# NumForcedGC = 0
`

func TestParseHeapProfile(t *testing.T) {
	h, err := ParseHeapProfile([]byte(heapProfile))
	if err != nil {
		t.Fatal(err)
	}
	want := Heap{TotalAlloc: 981234567, Mallocs: 4455, NumGC: 2, PauseNs: 30750}
	if h != want {
		t.Errorf("parsed %+v; want %+v", h, want)
	}
	if d := h.Sub(Heap{TotalAlloc: 234567, Mallocs: 55, NumGC: 1, PauseNs: 750}); d != (Heap{TotalAlloc: 981000000, Mallocs: 4400, NumGC: 1, PauseNs: 30000}) {
		t.Errorf("Sub = %+v", d)
	}
	if _, err := ParseHeapProfile([]byte("# TotalAlloc = 1\n")); err == nil {
		t.Error("a profile without the MemStats trailer parsed")
	}
}

func TestSelfReadings(t *testing.T) {
	cpu, err := parseStatCPU([]byte("4242 (low latd) S) S 1 4242 4242 0 -1 4194560 911 0 0 0 37 12 0 0 20 0 9 0 123456 1 2\n"))
	if err != nil || cpu != 490*time.Millisecond {
		t.Errorf("parseStatCPU = %v, %v; want 490ms (37 + 12 ticks)", cpu, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("malformed stat line parsed")
	}
	before := SelfCPU()
	for x, deadline := 0, time.Now().Add(30*time.Millisecond); time.Now().Before(deadline); x++ {
		_ = x * x
	}
	if d := SelfCPU() - before; d < 10*time.Millisecond || d > time.Second {
		t.Errorf("30 ms of spinning cost %v of CPU", d)
	}
	if rssOf("self") < 1<<20 || rssOf("999999999") != 0 {
		t.Errorf("rssOf(self) = %d, rssOf(no such pid) = %d", rssOf("self"), rssOf("999999999"))
	}
	s := SampleRSS("self")
	time.Sleep(100 * time.Millisecond)
	if peak := s.Stop(); peak < 1<<20 {
		t.Errorf("sampled peak RSS %d bytes", peak)
	}
}
