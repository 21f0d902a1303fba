package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// procSample is a point-in-time reading of the process-wide counters.
type procSample struct {
	at         time.Time
	cpu        time.Duration // user + system, from getrusage
	gcCPU      float64       // seconds the collector has used
	allocBytes uint64        // cumulative heap allocation
}

func sampleProc() procSample {
	s := procSample{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	m := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	if m[1].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = m[1].Value.Uint64()
	}
	return s
}

// procDelta is what the process used between two samples.
type procDelta struct {
	wall       time.Duration
	cpu        time.Duration
	gcCPU      float64
	allocBytes uint64
}

func (a procSample) until(b procSample) procDelta {
	return procDelta{wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, gcCPU: b.gcCPU - a.gcCPU, allocBytes: b.allocBytes - a.allocBytes}
}

// cpuUtil is CPU time over wall time over the processor count: 1 means
// every core was busy for the whole interval.
func (d procDelta) cpuUtil() float64 {
	if d.wall <= 0 {
		return 0
	}
	return d.cpu.Seconds() / d.wall.Seconds() / float64(runtime.NumCPU())
}

// gcShare is the collector's part of the CPU time used.
func (d procDelta) gcShare() float64 {
	if d.cpu <= 0 {
		return 0
	}
	return d.gcCPU / d.cpu.Seconds()
}

// peakRSSMB is the process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// kernelVersion is the running kernel's release, for the results file.
func kernelVersion() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
