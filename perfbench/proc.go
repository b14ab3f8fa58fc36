package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host fingerprints the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	// Network states where the traffic goes: every hop crosses loopback
	// TCP inside this one process.
	Network string `json:"network"`
}

func hostInfo() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Network:    "loopback TCP, one process",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// procSample is the process's cumulative resource counters at one instant.
type procSample struct {
	cpu        time.Duration // user + system
	ctxsw      int64         // voluntary + involuntary context switches
	syscalls   int64         // read + write syscalls (/proc/self/io)
	mallocs    uint64
	allocBytes uint64
	gcs        uint32
}

func sampleProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.ctxsw = ru.Nvcsw + ru.Nivcsw
	}
	if b, err := os.ReadFile("/proc/self/io"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ": "); ok && (k == "syscr" || k == "syscw") {
				n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				s.syscalls += n
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes, s.gcs = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	return s
}

// sampler polls the process's resident set size and goroutine count
// every 10 ms until stopped.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// Owned by the sampling goroutine until done returns.
	rss           []int64 // bytes
	goroutinesMax int
}

func startSampler() *sampler {
	sm := &sampler{stop: make(chan struct{})}
	page := int64(os.Getpagesize())
	sm.wg.Add(1)
	go func() {
		defer sm.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			sm.goroutinesMax = max(sm.goroutinesMax, runtime.NumGoroutine())
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if n, err := strconv.ParseInt(f[1], 10, 64); err == nil {
						sm.rss = append(sm.rss, n*page)
					}
				}
			}
			select {
			case <-sm.stop:
				return
			case <-t.C:
			}
		}
	}()
	return sm
}

// done stops the sampler; its fields are then safe to read.
func (sm *sampler) done() *sampler {
	close(sm.stop)
	sm.wg.Wait()
	return sm
}
