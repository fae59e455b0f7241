package proc

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"lowlat/bench/internal/stat"
)

// RSSSampler polls the resident set of a group of processes and reports
// a steady stand-in for its peak. VmHWM — the true high-water mark — is
// an extreme value: one garbage-collection cycle that starts a few
// milliseconds late moves it by a quarter on a process whose live heap
// is a few MiB, so two runs of the same code disagree by more than any
// bound a regression check could use. The sampler instead takes the
// summed VmRSS every sampleEvery, cuts the run into windows, and
// reports the median of the windows' maxima: still a peak (memory held
// for a whole window always counts), but one late GC cycle cannot set it.
type RSSSampler struct {
	pids []string
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	samples []rssSample // guarded by mu
}

type rssSample struct {
	at    time.Time
	bytes int64
}

const (
	sampleEvery = 20 * time.Millisecond
	rssWindow   = 500 * time.Millisecond
)

// SampleRSS starts sampling the given pids ("self" for this process).
func SampleRSS(pids ...string) *RSSSampler {
	s := &RSSSampler{pids: pids, stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				var total int64
				for _, pid := range s.pids {
					total += rssOf(pid)
				}
				s.mu.Lock()
				s.samples = append(s.samples, rssSample{now, total})
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the median window peak in bytes (the
// overall maximum when the run was shorter than two windows).
func (s *RSSSampler) Stop() int64 {
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	var peaks []float64
	start, peak := s.samples[0].at, int64(0)
	for _, sm := range s.samples {
		if sm.at.Sub(start) >= rssWindow {
			peaks = append(peaks, float64(peak))
			start, peak = sm.at, 0
		}
		peak = max(peak, sm.bytes)
	}
	if len(peaks) < 2 {
		peaks = append(peaks, float64(peak))
	}
	return int64(stat.Median(peaks))
}

// rssOf reads VmRSS in bytes from /proc/<pid>/statm (0 if the process
// is gone: a dead daemon is reported by its own Stop).
func rssOf(pid string) int64 {
	b, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// PidString renders the daemon's pid for SampleRSS.
func (d *Daemon) PidString() string { return fmt.Sprint(d.Pid()) }
