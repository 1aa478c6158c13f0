package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// idleSpinArg makes this binary an idler instead of a benchmark run.
const idleSpinArg = "--idle-spin"

// idlers are child processes, one per CPU, that spin at the lowest
// scheduling priority the kernel offers while a run sets up and
// measures. They never take a CPU a benchmark thread wants; what they do
// is keep the CPUs from going idle. On a virtual machine a halted vCPU
// takes tens of microseconds to wake, how often a hand-off between
// goroutines hits a halted vCPU depends on what else the host is doing,
// and that alone moved hit_small's median latency by 29% between runs
// minutes apart (README.md "Noise floor"). It is the userspace form of
// booting a benchmark machine with idle=poll.
type idlers struct {
	cmds   []*exec.Cmd
	stdins []io.Closer
}

// startIdlers starts one idler per CPU. An idler exits when its
// standard input closes, so none outlives this process however it dies.
func startIdlers() (*idlers, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ids := &idlers{}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, idleSpinArg)
		stdin, err := cmd.StdinPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			ids.stop()
			return nil, err
		}
		ids.cmds = append(ids.cmds, cmd)
		ids.stdins = append(ids.stdins, stdin)
	}
	return ids, nil
}

// stop ends every idler and waits for it.
func (ids *idlers) stop() {
	for _, in := range ids.stdins {
		_ = in.Close()
	}
	for _, cmd := range ids.cmds {
		_ = cmd.Wait() // the idler exits 0 on end of input
	}
	ids.cmds, ids.stdins = nil, nil
}

// idleSpin is the idler's whole life: drop to idle priority, spin, exit
// when the parent closes the pipe or dies. Priority and scheduling
// policy belong to a thread, so the spinning goroutine stays locked to
// the thread that lowered them.
func idleSpin() {
	runtime.LockOSThread()
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // best effort; nice 19 everywhere
	schedIdle()                                          // SCHED_IDLE on top where there is one
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	for {
	}
}
