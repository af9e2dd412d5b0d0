//go:build !unix

package livenet

import "syscall"

// writeNow writes nothing where the socket cannot be written without
// waiting through its descriptor: the whole frame becomes the link's
// tail, and the next Send writes it.
func writeNow(syscall.RawConn, []byte) (int, error) { return 0, nil }
