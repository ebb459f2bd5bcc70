//go:build !unix

package container

// peekWouldBlock cannot peek here, so every idle connection counts as
// live.
func peekWouldBlock(uintptr, []byte) bool { return true }
