package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Idle pollers. This box is a 2-vCPU guest, and one closed-loop client
// leaves each vCPU idle most of the time between the hops of a round trip.
// An idle vCPU halts, and waking a halted vCPU goes through the host: that
// wake-up, not Catfish, was both the largest share of a point search's
// latency and the source of its 30 % minute-to-minute drift (README.md,
// "Repeatability"). So for the length of a run the benchmark keeps every
// CPU out of the halted state with one spinning process per CPU at
// SCHED_IDLE priority — the kernel runs it only when nothing else wants the
// CPU and preempts it the moment anything does — the per-process
// equivalent of booting with idle=poll. Their CPU time is not in
// cpu_us_per_op, which reads RUSAGE_SELF.

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

type cpuMask [16]uint64 // room for 1024 CPUs, the kernel's default limit

func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, errno
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// startIdlePollers starts one poller per CPU this process may run on and
// returns the function that kills them and waits for each to end.
func startIdlePollers() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, fmt.Errorf("sched_getaffinity: %w", err)
	}
	var started []*exec.Cmd
	stop = func() {
		for _, c := range started {
			_ = c.Process.Kill() // it may have ended already; Wait reaps it either way
			_ = c.Wait()
		}
	}
	for _, cpu := range cpus {
		c := exec.Command(exe, "--idle-poll", strconv.Itoa(cpu))
		c.Stderr = os.Stderr
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		// Should this process die without calling stop, the kernel ends the poller.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, err
		}
		started = append(started, c)
	}
	return stop, nil
}

// idlePoll is the poller process: pin to cpu, drop to SCHED_IDLE, spin until
// killed (or until the parent is gone, should the death signal not arrive).
func idlePoll(cpu int) error {
	runtime.LockOSThread()
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("idle poller: sched_setaffinity(%d): %w", cpu, errno)
	}
	// Refuse to spin at normal priority: that would take the CPU from the benchmark.
	var prio int32
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); errno != 0 {
		return fmt.Errorf("idle poller: sched_setscheduler(SCHED_IDLE): %w", errno)
	}
	parent := os.Getppid()
	for x := uint64(1); os.Getppid() == parent; {
		for i := 0; i < 1<<26; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		sink += int(x & 1)
	}
	return nil
}
