//go:build unix

package container

import "syscall"

// peekWouldBlock peeks at the socket fd and reports whether it holds
// nothing to read yet: not data, not the peer's FIN. The runtime keeps
// its sockets non-blocking, so the peek returns at once.
func peekWouldBlock(fd uintptr, buf []byte) bool {
	_, _, err := syscall.Recvfrom(int(fd), buf, syscall.MSG_PEEK)
	return err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
}
