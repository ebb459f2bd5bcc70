//go:build !unix

package altstacks_test

import "time"

// processCPU reads zero where getrusage is missing.
func processCPU() time.Duration { return 0 }

// processSyscalls reports nothing where /proc/self/io is missing.
func processSyscalls() (reads, writes int64, ok bool) { return 0, 0, false }
