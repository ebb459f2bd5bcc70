//go:build unix

package altstacks_test

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the CPU time the process has used, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// processSyscalls is the read and write system calls the process has
// made (syscr and syscw in /proc/self/io); ok is false where that file
// does not exist.
func processSyscalls() (reads, writes int64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, v, _ := strings.Cut(line, ": ")
		switch name {
		case "syscr":
			reads, _ = strconv.ParseInt(v, 10, 64)
		case "syscw":
			writes, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return reads, writes, true
}
