//go:build !unix

package altstacks_test

import "time"

// processCPU reads zero where getrusage is missing.
func processCPU() time.Duration { return 0 }
