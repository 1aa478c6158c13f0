package main

import (
	"syscall"
	"unsafe"
)

// schedIdle puts the calling thread in the SCHED_IDLE class: it runs
// only when no other thread wants the CPU and is preempted the moment
// one does. Best effort; nice 19 remains if the kernel refuses.
func schedIdle() {
	const schedIdlePolicy = 5 // SCHED_IDLE in <linux/sched.h>
	var param struct{ priority int32 }
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdlePolicy, uintptr(unsafe.Pointer(&param)))
}
