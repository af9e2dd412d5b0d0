// Package wire is the byte format of everything that leaves a process:
// protocol messages between peers (internal/daemon) and
// the records internal/stable, internal/chunkstore and internal/explore
// append to their files. There is one encoding and one record frame,
// which the daemon's control RPC also rides (its body codec lives in
// internal/daemon, beside the types it carries, and reads with Cursor).
//
// A message frame is [4-byte BE body length][body]; the transport under
// it (TCP) already checksums. A record frame, which has to survive a
// power cut, adds a checksum:
//
//	[4-byte BE body length][4-byte BE CRC32C of body][body]
//
// Every body starts with a version byte and continues with fixed-order
// fields: unsigned integers as uvarints, signed ones as zig-zag varints,
// byte strings and vectors behind a uvarint count that is checked against
// the bytes remaining before anything is allocated. Every decoder reads
// through Cursor, which takes only the shortest form of a varint.
// DESIGN.md §11 has the field tables.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"mutablecp/internal/protocol"
)

// MaxFrame bounds a single encoded body; anything larger indicates
// corruption (the largest legitimate message is a request carrying an MR
// vector, the largest record a chunk of MaxFrame/2 bytes).
const MaxFrame = 1 << 20

// Record framing errors. A torn record is a frame the writer did not
// finish (crash mid-append): expected, and truncatable, at the tail of
// the last segment. A corrupt record is a complete frame that fails its
// checksum or does not parse: never expected, anywhere. A frame whose
// checksum holds but whose body leads with a version this build does not
// write was not damaged, it was written by another build: truncating it
// would discard good data, so it is neither of the above.
var (
	ErrTornRecord    = errors.New("wire: torn record")
	ErrCorruptRecord = errors.New("wire: corrupt record")
	ErrFormatVersion = errors.New("wire: unknown format version")
)

const frameHeaderLen = 8

// The CRC uses the Castagnoli polynomial (the one disk and network
// ecosystems standardized on because of hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealFrame completes the record frame that starts at dst[start]: the
// caller appended eight placeholder bytes and then the body. It is the
// one writer of the frame ReadFrame reads, for the records here and for
// the daemon's control RPC. Appends hand the whole frame to one Write,
// so a filesystem seam can model it as one (possibly torn) disk
// operation.
func SealFrame(dst []byte, start int) ([]byte, error) {
	body := dst[start+frameHeaderLen:]
	if len(body) > MaxFrame {
		return dst[:start], fmt.Errorf("wire: record too large (%d bytes)", len(body))
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst, nil
}

// FrameLen returns the length of the sealed record frame that b starts
// with, header included, so a run of frames laid end to end can be cut
// apart without reading their bodies. It fails if b is too short to hold
// that frame, or its length prefix is one no encoder writes.
func FrameLen(b []byte) (int, error) {
	if len(b) < frameHeaderLen {
		return 0, fmt.Errorf("%w: short header (%d bytes)", ErrTornRecord, len(b))
	}
	bodyLen := binary.BigEndian.Uint32(b)
	if bodyLen > MaxFrame {
		return 0, fmt.Errorf("%w: length prefix %d exceeds MaxFrame", ErrCorruptRecord, bodyLen)
	}
	n := frameHeaderLen + int(bodyLen)
	if n > len(b) {
		return 0, fmt.Errorf("%w: short body (%d of %d bytes)", ErrTornRecord, len(b)-frameHeaderLen, n-frameHeaderLen)
	}
	return n, nil
}

// ReadFrame reads one record frame and returns its checksum-verified body
// and how many bytes of the stream it consumed. It is the only reader of
// the frame; the Parse functions take the body from there. Errors:
//
//   - io.EOF: clean end of log (no bytes of a further record present)
//   - ErrTornRecord: the stream ends mid-header or mid-body
//   - ErrCorruptRecord: checksum failure or an absurd length prefix
//   - anything else: the reader's own error, unclassified. A read that
//     failed says nothing about what the file holds, so it must never be
//     answered with the truncation a torn record gets.
func ReadFrame(r io.Reader) ([]byte, int, error) {
	var hdr [frameHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		return nil, n, fmt.Errorf("%w: short header (%d bytes)", ErrTornRecord, n)
	}
	if err != nil {
		return nil, n, fmt.Errorf("wire: read record header: %w", err)
	}
	bodyLen := binary.BigEndian.Uint32(hdr[:4])
	if bodyLen > MaxFrame {
		return nil, n, fmt.Errorf("%w: length prefix %d exceeds MaxFrame", ErrCorruptRecord, bodyLen)
	}
	body := make([]byte, bodyLen)
	m, err := io.ReadFull(r, body)
	n += m
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, n, fmt.Errorf("%w: short body (%d of %d bytes)", ErrTornRecord, m, bodyLen)
	}
	if err != nil {
		return nil, n, fmt.Errorf("wire: read record body: %w", err)
	}
	if got, want := crc32.Checksum(body, castagnoli), binary.BigEndian.Uint32(hdr[4:]); got != want {
		return nil, n, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorruptRecord, got, want)
	}
	return body, n, nil
}

// Cursor parses a body front to back, for the decoders here and for the
// daemon's control codec. A field that runs past the end, a varint
// longer than its shortest form, or a count larger than the bytes left
// sets bad and yields zeros from then on, so decoders read every field
// unconditionally and check once, in Close. Since only the shortest
// form passes, a value decodes only from the bytes its encoder writes.
// Go evaluates the calls in a composite literal left to right, so a
// decoder's literal lists the fields in wire order.
type Cursor struct {
	b   []byte
	bad bool
}

// OpenBody starts parsing body, whose first byte must be version.
func OpenBody(body []byte, version byte) (Cursor, error) {
	if len(body) == 0 {
		return Cursor{}, fmt.Errorf("%w: empty body", ErrCorruptRecord)
	}
	if body[0] != version {
		return Cursor{}, fmt.Errorf("%w %d (this build reads %d)", ErrFormatVersion, body[0], version)
	}
	return Cursor{b: body[1:]}, nil
}

// Close reports a body that ended early, overran a bound, held a varint
// longer than its shortest form, or has bytes left over.
func (c *Cursor) Close() error {
	if c.bad {
		return fmt.Errorf("%w: truncated, out-of-range or overlong field", ErrCorruptRecord)
	}
	if len(c.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(c.b))
	}
	return nil
}

// Fail marks the body bad: a decoder's own check on a field failed.
func (c *Cursor) Fail() { c.bad, c.b = true, nil }

// Uvarint reads a uvarint in its shortest form.
func (c *Cursor) Uvarint() uint64 {
	v, k := binary.Uvarint(c.b)
	// A longer encoding than the shortest ends in a zero byte.
	if k <= 0 || k > 1 && c.b[k-1] == 0 {
		c.Fail()
		return 0
	}
	c.b = c.b[k:]
	return v
}

// Varint reads a zig-zag varint, binary.AppendVarint's encoding, in its
// shortest form.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int reads a zig-zag varint into an int.
func (c *Cursor) Int() int { return int(c.Varint()) }

// take returns the next n bytes, aliasing the body.
func (c *Cursor) take(n int) []byte {
	if n > len(c.b) {
		c.Fail()
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if b := c.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Count reads an element count and refuses one the remaining bytes
// cannot hold at size bytes per element, so a hostile count never sizes
// an allocation.
func (c *Cursor) Count(size int) int {
	n := c.Uvarint()
	if n > uint64(len(c.b)/size) {
		c.Fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string (nil when empty), aliasing
// the body.
func (c *Cursor) Bytes() []byte {
	if n := c.Count(1); n > 0 {
		return c.take(n)
	}
	return nil
}

// Counters reads a counted uvarint vector (nil when empty).
func (c *Cursor) Counters() []uint64 {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = c.Uvarint()
	}
	return out
}

// Trigger reads what AppendTrigger writes.
func (c *Cursor) Trigger() protocol.Trigger {
	return protocol.Trigger{Pid: c.Int(), Inum: c.Int()}
}

// State reads what AppendState writes.
func (c *Cursor) State() protocol.State {
	return protocol.State{
		Proc: c.Int(), CSN: c.Int(),
		SentTo: c.Counters(), RecvFrom: c.Counters(),
		At: time.Duration(c.Varint()),
	}
}

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// AppendBytes appends b behind its uvarint length.
func AppendBytes[T string | []byte](dst []byte, b T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendCounters appends v's length and then each element as a uvarint.
func AppendCounters(dst []byte, v []uint64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, x := range v {
		dst = binary.AppendUvarint(dst, x)
	}
	return dst
}

// AppendTrigger appends t's Pid and Inum as zig-zag varints.
func AppendTrigger(dst []byte, t protocol.Trigger) []byte {
	return appendInt(appendInt(dst, t.Pid), t.Inum)
}

// AppendState appends s field by field: Proc and CSN as zig-zag
// varints, SentTo and RecvFrom as counted uvarints, At in nanoseconds.
func AppendState(dst []byte, s *protocol.State) []byte {
	dst = appendInt(appendInt(dst, s.Proc), s.CSN)
	dst = AppendCounters(AppendCounters(dst, s.SentTo), s.RecvFrom)
	return binary.AppendVarint(dst, int64(s.At))
}

const (
	messageVersion = 1

	flagCommit = 1 << 0
	flagMR     = 1 << 1 // an MR vector follows; absent and empty differ
	// flagEarlier: a count and that many triggers follow the ReqCSN
	// (Message.Earlier); absent on every message whose sender is inside
	// at most one instance.
	flagEarlier = 1 << 2
)

// AppendMessage appends one framed message to dst and returns the
// extended slice. Into a dst with room it allocates nothing.
func AppendMessage(dst []byte, m *protocol.Message) ([]byte, error) {
	start := len(dst)
	var flags byte
	if m.Commit {
		flags |= flagCommit
	}
	if !m.MR.IsZero() {
		flags |= flagMR
	}
	if len(m.Earlier) > 0 {
		flags |= flagEarlier
	}
	dst = append(dst, 0, 0, 0, 0, messageVersion, flags)
	dst = appendInt(appendInt(appendInt(dst, int(m.Kind)), m.From), m.To)
	dst = appendInt(binary.AppendUvarint(dst, m.Seq), m.Size)
	dst = AppendBytes(dst, m.Payload)
	dst = appendInt(appendInt(AppendTrigger(dst, m.Trigger), m.CSN), m.ReqCSN)
	if flags&flagEarlier != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Earlier)))
		for _, t := range m.Earlier {
			dst = AppendTrigger(dst, t)
		}
	}
	if flags&flagMR != 0 {
		// n csn values, then the n R flags packed eight to a byte.
		n := m.MR.Len()
		dst = binary.AppendUvarint(dst, uint64(n))
		for k := 0; k < n; k++ {
			dst = appendInt(dst, m.MR.CSN(k))
		}
		for k := 0; k < n; k += 8 {
			var bits byte
			for j := 0; j < 8 && k+j < n; j++ {
				if m.MR.Flag(k + j) {
					bits |= 1 << j
				}
			}
			dst = append(dst, bits)
		}
	}
	// The weight is the rest of the body (nothing for zero), so it needs
	// no length of its own.
	if !m.Weight.IsZero() {
		dst = m.Weight.AppendBinary(dst)
	}
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// DecodeMessage decodes exactly one frame as AppendMessage wrote it. The
// message's Payload aliases frame.
func DecodeMessage(frame []byte) (*protocol.Message, error) {
	if len(frame) < 4 || uint64(binary.BigEndian.Uint32(frame)) != uint64(len(frame)-4) {
		return nil, fmt.Errorf("wire: decode: %d bytes are not one frame", len(frame))
	}
	if len(frame)-4 > MaxFrame {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", len(frame)-4)
	}
	return decodeMessage(frame[4:])
}

func decodeMessage(body []byte) (*protocol.Message, error) {
	c, err := OpenBody(body, messageVersion)
	if err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	flags := c.Byte()
	if flags&^(flagCommit|flagMR|flagEarlier) != 0 {
		return nil, fmt.Errorf("wire: decode: unknown flags %#x", flags)
	}
	m := &protocol.Message{
		Kind: protocol.Kind(c.Int()), From: c.Int(), To: c.Int(),
		Seq: c.Uvarint(), Size: c.Int(),
		Payload: c.Bytes(),
		Trigger: c.Trigger(), CSN: c.Int(), ReqCSN: c.Int(),
		Commit: flags&flagCommit != 0,
	}
	if flags&flagEarlier != 0 {
		// Each trigger is at least two bytes.
		n := c.Count(2)
		if n == 0 {
			return nil, fmt.Errorf("wire: decode: empty earlier-trigger list")
		}
		m.Earlier = make([]protocol.Trigger, n)
		for k := range m.Earlier {
			m.Earlier[k] = c.Trigger()
		}
	}
	if flags&flagMR != 0 {
		n := c.Count(1)
		mr := protocol.NewMRBuilder(n)
		for k := 0; k < n; k++ {
			if csn := c.Int(); csn != 0 {
				mr.SetCSN(k, csn)
			}
		}
		for k, bits := range c.take((n + 7) / 8) {
			for j := 0; j < 8; j++ {
				switch {
				case bits&(1<<j) == 0:
				case 8*k+j < n:
					mr.SetFlag(8*k + j)
				default:
					c.Fail() // AppendMessage leaves the padding bits zero
				}
			}
		}
		m.MR = mr.Freeze()
	}
	if weight := c.take(len(c.b)); len(weight) > 0 {
		// UnmarshalBinary enforces dyadic.MaxExp. A zero weight is
		// written as nothing, never as its four-byte form.
		if err := m.Weight.UnmarshalBinary(weight); err != nil {
			return nil, fmt.Errorf("wire: decode: %w", err)
		}
		if m.Weight.IsZero() {
			c.Fail()
		}
	}
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return m, nil
}

// Decoder reads framed messages from a stream. The daemon decodes frame
// bodies with DecodeMessage; Decoder serves bench's wire probe and
// FuzzDecode.
type Decoder struct {
	r *bufio.Reader
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// Decode reads one message frame. It returns io.EOF on a clean stream
// end.
func (d *Decoder) Decode() (*protocol.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	return decodeMessage(body)
}
