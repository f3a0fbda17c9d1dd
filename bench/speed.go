package main

import (
	"crypto/sha256"
	"hash/crc32"
	"syscall"
	"time"
)

// This sandbox shares its memory bandwidth and caches with other tenants:
// a fixed copy loop timed every second moves by tens of per cent in waves
// minutes long, and every CPU-bound call of a run moves with it. No
// statistic taken inside one run can average that away, so the end-to-end
// timings are reported in reference milliseconds: the wall time of a call,
// with its CPU-busy share divided by the machine's speed factor measured
// right before and right after the call. The factor is the time of a fixed
// allocation-free kernel (copy, CRC-32, SHA-256 over preallocated buffers)
// over the time that kernel takes on this sandbox when it is quiet. Time a
// call spends off the CPU (fsync, the object store's simulated latency)
// does not scale with CPU speed and is left as measured. Per-layer timings
// are plain wall-clock.

// refNominalMs is the reference kernel's time on a quiet sandbox core.
const refNominalMs = 3.0

type speedMeter struct {
	src, dst []byte
	sink     uint32
}

func newSpeedMeter() speedMeter {
	return speedMeter{src: make([]byte, 8<<20), dst: make([]byte, 8<<20)}
}

// probe runs the reference kernel once and returns its wall time in ms.
func (m *speedMeter) probe() float64 {
	t0 := time.Now()
	for k := 0; k < 2; k++ {
		copy(m.dst, m.src)
		m.sink += crc32.ChecksumIEEE(m.dst[:2<<20])
		sum := sha256.Sum256(m.dst[:1<<20])
		m.sink += uint32(sum[0])
	}
	return nsToMs(int64(time.Since(t0)))
}

// processCPUNs is the CPU time (user + system, all threads) the process has
// used so far.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// referenceMs converts a call's wall time to reference milliseconds: the
// share of the wall time the process was on the CPU (at most all of it) is
// divided by the speed factor, the rest is kept.
func referenceMs(wallNs, cpuNs int64, factor float64) float64 {
	wall := nsToMs(wallNs)
	if wallNs <= 0 || factor <= 0 {
		return wall
	}
	busy := float64(cpuNs) / float64(wallNs)
	if busy > 1 {
		busy = 1
	}
	if busy < 0 {
		busy = 0
	}
	return wall*(1-busy) + wall*busy/factor
}
