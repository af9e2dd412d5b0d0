package daemon

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"mutablecp/internal/chunkstore"
	"mutablecp/internal/stable"
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

// Control RPC codec. A request and its response each travel as one wire
// record frame ([4-byte length][4-byte CRC32C][body], wire.SealFrame and
// wire.ReadFrame), so a read is bounded by wire.MaxFrame before anything
// is allocated. The body is a version byte and then every field of the
// Go type in declaration order: signed integers as zig-zag varints,
// unsigned ones as uvarints, strings and byte slices behind a uvarint
// length, and maps as a count followed by their entries in ascending key
// order; the response's booleans end it, packed into one flags byte. Empty
// slices and maps decode as nil. The decoders read with wire.Cursor, which
// takes only the shortest encoding of each varint, and refuse keys that
// do not ascend, so every body they accept re-encodes to the same bytes.
const ctlVersion = 2

// Response flag bits.
const (
	flagReady = 1 << iota
	flagInProgress
	flagCommitted
	flagHasPayload
	flagsKnown = 1<<iota - 1
)

// sessionFields is the count of SessionMetrics' counters, each at least
// one byte on the wire.
const sessionFields = 11

// readRequest reads one request frame.
func readRequest(r io.Reader) (Request, error) {
	c, err := openCtl(r)
	if err != nil {
		return Request{}, err
	}
	req := Request{
		Op: string(c.Bytes()), To: c.Int(), Payload: c.Bytes(),
		WaitMS: c.Int(), Trig: c.Trigger(),
	}
	if err := closeCtl(&c, "request"); err != nil {
		return Request{}, err
	}
	return req, nil
}

// appendRequest appends req's frame to dst.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, ctlVersion)
	dst = wire.AppendBytes(dst, req.Op)
	dst = binary.AppendVarint(dst, int64(req.To))
	dst = wire.AppendBytes(dst, req.Payload)
	dst = binary.AppendVarint(dst, int64(req.WaitMS))
	dst = wire.AppendTrigger(dst, req.Trig)
	return wire.SealFrame(dst, start)
}

// readResponse reads one response frame.
func readResponse(r io.Reader) (Response, error) {
	c, err := openCtl(r)
	if err != nil {
		return Response{}, err
	}
	resp := Response{
		Err: string(c.Bytes()), ID: c.Int(), N: c.Int(), Algorithm: string(c.Bytes()),
		Incarnation: c.Varint(), Commits: c.Uvarint(), Aborts: c.Uvarint(),
		State:   c.State(),
		Metrics: Metrics{Commits: c.Uvarint(), Aborts: c.Uvarint(), LoopHandoffs: c.Uvarint()},
	}
	if n := c.Count(1 + sessionFields); n > 0 {
		resp.Metrics.Sessions = make(map[int]SessionMetrics, n)
		entries(&c, n, func(peer int) {
			resp.Metrics.Sessions[peer] = SessionMetrics{
				DataFrames: c.Uvarint(), Retransmissions: c.Uvarint(),
				AcksSent: c.Uvarint(), DupsSuppressed: c.Uvarint(),
				Buffered: c.Uvarint(), StaleFrames: c.Uvarint(),
				Reopened: c.Uvarint(), Connects: c.Uvarint(),
				Batches: c.Uvarint(), Envelopes: c.Uvarint(),
				WriterBatches: c.Uvarint(),
			}
		})
	}
	if n := c.Count(2); n > 0 {
		resp.Metrics.Backlog = make(map[int]int, n)
		entries(&c, n, func(peer int) { resp.Metrics.Backlog[peer] = c.Int() })
	}
	resp.Metrics.Store = logMetrics(&c)
	resp.Payload = chunkstore.Stats{
		Segments: c.Int(), Chunks: c.Int(), LiveChunks: c.Int(),
		LiveBytes: c.Varint(), DiskBytes: c.Varint(),
		Permanents: c.Int(), Tentatives: c.Int(),
		Saves: c.Uvarint(), LogicalBytes: c.Uvarint(), NewBytes: c.Uvarint(),
		NewChunks: c.Uvarint(), DedupChunks: c.Uvarint(),
		SelfDedupChunks: c.Uvarint(), CrossDedupChunks: c.Uvarint(),
		Metrics: logMetrics(&c),
	}
	resp.Outcome = Outcome(c.Int())
	flags := c.Byte()
	if flags&^flagsKnown != 0 {
		c.Fail()
	}
	resp.Ready = flags&flagReady != 0
	resp.InProgress = flags&flagInProgress != 0
	resp.Committed = flags&flagCommitted != 0
	resp.HasPayload = flags&flagHasPayload != 0
	if err := closeCtl(&c, "response"); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// appendResponse appends resp's frame to dst.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, ctlVersion)
	dst = wire.AppendBytes(dst, resp.Err)
	dst = binary.AppendVarint(dst, int64(resp.ID))
	dst = binary.AppendVarint(dst, int64(resp.N))
	dst = wire.AppendBytes(dst, resp.Algorithm)
	dst = binary.AppendVarint(dst, resp.Incarnation)
	dst = binary.AppendUvarint(dst, resp.Commits)
	dst = binary.AppendUvarint(dst, resp.Aborts)
	dst = wire.AppendState(dst, &resp.State)

	m := &resp.Metrics
	dst = binary.AppendUvarint(dst, m.Commits)
	dst = binary.AppendUvarint(dst, m.Aborts)
	dst = binary.AppendUvarint(dst, m.LoopHandoffs)
	dst = binary.AppendUvarint(dst, uint64(len(m.Sessions)))
	for _, peer := range sortedKeys(m.Sessions) {
		s := m.Sessions[peer]
		dst = binary.AppendVarint(dst, int64(peer))
		for _, v := range [sessionFields]uint64{
			s.DataFrames, s.Retransmissions, s.AcksSent, s.DupsSuppressed, s.Buffered,
			s.StaleFrames, s.Reopened, s.Connects, s.Batches, s.Envelopes,
			s.WriterBatches,
		} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Backlog)))
	for _, peer := range sortedKeys(m.Backlog) {
		dst = binary.AppendVarint(dst, int64(peer))
		dst = binary.AppendVarint(dst, int64(m.Backlog[peer]))
	}
	dst = appendLogMetrics(dst, &m.Store)

	p := &resp.Payload
	for _, v := range []int64{
		int64(p.Segments), int64(p.Chunks), int64(p.LiveChunks), p.LiveBytes, p.DiskBytes,
		int64(p.Permanents), int64(p.Tentatives),
	} {
		dst = binary.AppendVarint(dst, v)
	}
	for _, v := range []uint64{
		p.Saves, p.LogicalBytes, p.NewBytes, p.NewChunks, p.DedupChunks,
		p.SelfDedupChunks, p.CrossDedupChunks,
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = appendLogMetrics(dst, &p.Metrics)

	dst = binary.AppendVarint(dst, int64(resp.Outcome))
	flags := flag(resp.Ready, flagReady) | flag(resp.InProgress, flagInProgress) |
		flag(resp.Committed, flagCommitted) | flag(resp.HasPayload, flagHasPayload)
	return wire.SealFrame(append(dst, flags), start)
}

func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

func appendLogMetrics(dst []byte, m *stable.Metrics) []byte {
	for _, v := range []uint64{m.Appends, m.AppendedBytes, m.Syncs, m.Compactions, m.ReplayedRecords} {
		dst = binary.AppendUvarint(dst, v)
	}
	return binary.AppendVarint(dst, m.TruncatedBytes)
}

// openCtl reads one frame from r and starts parsing its body.
func openCtl(r io.Reader) (wire.Cursor, error) {
	body, _, err := wire.ReadFrame(r)
	if err != nil {
		return wire.Cursor{}, err
	}
	c, err := wire.OpenBody(body, ctlVersion)
	if err != nil {
		return c, fmt.Errorf("daemon: control frame: %w", err)
	}
	return c, nil
}

func closeCtl(c *wire.Cursor, what string) error {
	if err := c.Close(); err != nil {
		return fmt.Errorf("daemon: malformed control %s: %w", what, err)
	}
	return nil
}

// entries reads n map entries, each a key and then what entry reads.
// The keys must ascend strictly.
func entries(c *wire.Cursor, n int, entry func(key int)) {
	for i, prev := 0, 0; i < n; i++ {
		k := c.Int()
		if i > 0 && k <= prev {
			c.Fail()
		}
		prev = k
		entry(k)
	}
}

func logMetrics(c *wire.Cursor) stable.Metrics {
	return stable.Metrics{
		Appends: c.Uvarint(), AppendedBytes: c.Uvarint(), Syncs: c.Uvarint(),
		Compactions: c.Uvarint(), ReplayedRecords: c.Uvarint(),
		TruncatedBytes: c.Varint(),
	}
}
