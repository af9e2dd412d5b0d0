//go:build unix

package livenet

import "syscall"

// writeNow writes as much of b as the socket takes without waiting: it
// stops at the first EAGAIN, so n < len(b) with a nil error means the
// send buffer is full.
func writeNow(raw syscall.RawConn, b []byte) (n int, err error) {
	rerr := raw.Write(func(fd uintptr) bool {
		for n < len(b) {
			m, e := syscall.Write(int(fd), b[n:])
			if e == syscall.EINTR {
				continue
			}
			if e == syscall.EAGAIN || (e == nil && m == 0) {
				break
			}
			if e != nil {
				err = e
				break
			}
			n += m
		}
		return true // done: never wait for the socket to drain
	})
	if err == nil {
		err = rerr
	}
	return n, err
}
