package main

import (
	"syscall"
	"time"
	"unsafe"
)

// CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID from <time.h>.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuNow is the CPU time this process has consumed so far, summed over all
// its threads, to the nanosecond. The difference of two readings taken
// around one answer is what the answer cost the machine: the simulator, the
// service at both ends of the loopback connection and garbage collection,
// but not time spent waiting for a CPU that a neighbour holds.
func cpuNow() time.Duration { return clock(clockProcessCPUTime) }

// threadCPUNow is the CPU time the calling thread has consumed so far; the
// caller locks its goroutine to the thread while it takes readings.
func threadCPUNow() time.Duration { return clock(clockThreadCPUTime) }

func clock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // only EINVAL or EFAULT, neither possible here
	}
	return time.Duration(ts.Nano())
}
