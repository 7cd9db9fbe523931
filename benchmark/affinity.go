package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Processor placement. On a small machine the generator and the daemon
// competing for the same processors is the largest source of run-to-run
// noise: a reply that finds the reader's processor taken by the daemon
// waits a scheduler quantum, and the tail latency measures that. So the
// machine is split: the generator keeps the last `generatorCPUs()`
// processors and the daemon is started on the others. With one processor
// there is nothing to split.

type cpuSet [16]uint64 // 1024 processors

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) list() []int {
	var out []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

// placement is the split of the processors this process may use.
type placement struct {
	generator, daemon, all cpuSet
	split                  bool
}

// plan divides the allowed processors: the generator gets one per
// connection but at most half, the daemon the rest.
func plan() placement {
	var p placement
	allowed, err := getAffinity(0)
	cpus := allowed.list()
	if err != nil || len(cpus) < 2 {
		return p
	}
	p.all = allowed
	g := connections()
	if g > len(cpus)/2 {
		g = len(cpus) / 2
	}
	for i, cpu := range cpus {
		if i < len(cpus)-g {
			p.daemon.set(cpu)
		} else {
			p.generator.set(cpu)
		}
	}
	p.split = true
	return p
}

// confineSelf moves every thread of this process onto the generator's
// processors; threads created later inherit the mask. releaseSelf gives
// them every processor back.
func (p placement) confineSelf() error { return p.moveSelf(&p.generator) }
func (p placement) releaseSelf() error { return p.moveSelf(&p.all) }

func (p placement) moveSelf(to *cpuSet) error {
	if !p.split {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, to); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	return nil
}

// startOnDaemonCPUs runs start (which forks the daemon) on a thread that
// is confined to the daemon's processors, so that the child inherits
// them, and then returns the thread to the generator's.
func (p placement) startOnDaemonCPUs(start func() error) error {
	if !p.split {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, &p.daemon); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := start()
	if back := setAffinity(0, &p.generator); back != nil && err == nil {
		err = fmt.Errorf("sched_setaffinity: %w", back)
	}
	return err
}
