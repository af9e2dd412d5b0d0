package daemon

import (
	"encoding/binary"
	"fmt"
	"io"

	"mutablecp/internal/wire"
)

// Envelope codec for the peer data plane. An envelope is the ARQ header
// (session generation, sequence number, cumulative ack) around one
// wire.AppendMessage frame; both ends are always the same build. Fixed
// big-endian fields keep the decode a single bounds-checked parse.
//
// Layout, after a 4-byte big-endian frame length (the outer framing of a
// wire message frame, with the same MaxFrame bound on the body):
//
//	[1] Kind  [4] Src  [8] Inc  [8] Gen  [8] Seq  [8] Cum  [...] Body
const envHeaderLen = 1 + 4 + 8 + 8 + 8 + 8

// appendEnvelope appends e's frame to dst and returns the result.
func appendEnvelope(dst []byte, e *envelope) []byte {
	var hdr [4 + envHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(envHeaderLen+len(e.Body)))
	hdr[4] = byte(e.Kind)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(int32(e.Src)))
	binary.BigEndian.PutUint64(hdr[9:17], uint64(e.Inc))
	binary.BigEndian.PutUint64(hdr[17:25], e.Gen)
	binary.BigEndian.PutUint64(hdr[25:33], e.Seq)
	binary.BigEndian.PutUint64(hdr[33:41], e.Cum)
	dst = append(dst, hdr[:]...)
	return append(dst, e.Body...)
}

// writeEnvelope frames e onto w in one Write (the handshake path; the
// data path batches many envelopes per Send in writeLoop instead).
func writeEnvelope(w io.Writer, e *envelope) error {
	if _, err := w.Write(appendEnvelope(nil, e)); err != nil {
		return fmt.Errorf("daemon: write envelope: %w", err)
	}
	return nil
}

// readEnvelope reads one envelope frame from r into e. The body is
// freshly allocated: the inbox may buffer it out of order, so it must
// not alias any reader scratch. A clean EOF at the frame boundary is
// returned as io.EOF so connection teardown stays quiet.
func readEnvelope(r io.Reader, e *envelope) error {
	var hdr [4 + envHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("daemon: read envelope header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n < envHeaderLen || n > envHeaderLen+wire.MaxFrame {
		return fmt.Errorf("daemon: envelope frame length %d out of range", n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return fmt.Errorf("daemon: read envelope fields: %w", err)
	}
	e.Kind = int(hdr[4])
	e.Src = int(int32(binary.BigEndian.Uint32(hdr[5:9])))
	e.Inc = int64(binary.BigEndian.Uint64(hdr[9:17]))
	e.Gen = binary.BigEndian.Uint64(hdr[17:25])
	e.Seq = binary.BigEndian.Uint64(hdr[25:33])
	e.Cum = binary.BigEndian.Uint64(hdr[33:41])
	if body := int(n) - envHeaderLen; body > 0 {
		e.Body = make([]byte, body)
		if _, err := io.ReadFull(r, e.Body); err != nil {
			return fmt.Errorf("daemon: read envelope body: %w", err)
		}
	} else {
		e.Body = nil
	}
	return nil
}
