package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mutablecp/internal/wire"
)

// TestEnvelopeRoundTrip: random envelopes survive the fixed-layout
// codec byte-for-byte, one frame after another on the same stream.
func TestEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream bytes.Buffer
	var want []envelope
	for i := 0; i < 200; i++ {
		e := envelope{
			Kind: 1 + rng.Intn(3),
			Src:  rng.Intn(64),
			Inc:  rng.Int63(),
			Gen:  rng.Uint64(),
			Seq:  rng.Uint64(),
			Cum:  rng.Uint64(),
		}
		if rng.Intn(2) == 0 {
			e.Body = make([]byte, rng.Intn(512))
			rng.Read(e.Body)
			if len(e.Body) == 0 {
				e.Body = nil
			}
		}
		want = append(want, e)
		if err := writeEnvelope(&stream, &e); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		var got envelope
		if err := readEnvelope(&stream, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, w)
		}
	}
	if err := readEnvelope(&stream, new(envelope)); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestEnvelopeFrameBounds: a frame length below the fixed header or
// above MaxFrame is rejected before any allocation.
func TestEnvelopeFrameBounds(t *testing.T) {
	for _, n := range []uint32{0, envHeaderLen - 1, envHeaderLen + wire.MaxFrame + 1} {
		frame := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
		err := readEnvelope(bytes.NewReader(frame), new(envelope))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("length %d: err = %v, want out-of-range", n, err)
		}
	}
}

// TestEnvelopeTruncated: a frame cut mid-fields or mid-body errors
// rather than returning a partial envelope.
func TestEnvelopeTruncated(t *testing.T) {
	full := appendEnvelope(nil, &envelope{Kind: envData, Src: 3, Body: []byte("abc")})
	for _, cut := range []int{5, 4 + envHeaderLen + 1} {
		if err := readEnvelope(bytes.NewReader(full[:cut]), new(envelope)); err == nil {
			t.Errorf("truncated at %d: decoded successfully, want error", cut)
		}
	}
}

// FuzzReadEnvelope feeds arbitrary bytes to the decoder that parses
// frames straight off a peer socket. It must never panic or over-read:
// every envelope it returns re-encodes to exactly the bytes it consumed,
// and io.EOF comes only at a frame boundary.
func FuzzReadEnvelope(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var stream []byte
	for i := 0; i < 4; i++ {
		e := envelope{Kind: 1 + rng.Intn(3), Src: rng.Intn(64), Inc: rng.Int63(), Gen: rng.Uint64(), Seq: rng.Uint64(), Cum: rng.Uint64()}
		if i%2 == 0 {
			e.Body = make([]byte, 1+rng.Intn(64))
			rng.Read(e.Body)
		}
		frame := appendEnvelope(nil, &e)
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated mid-frame
		stream = append(stream, frame...)
	}
	f.Add(stream) // back-to-back frames
	f.Add([]byte{})
	hdr := func(n uint32) []byte { return []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)} }
	f.Add(hdr(envHeaderLen - 1))                                       // too short for the fields
	f.Add(hdr(envHeaderLen + wire.MaxFrame + 1))                       // over-length
	f.Add(append(hdr(envHeaderLen+wire.MaxFrame), make([]byte, 8)...)) // longest legal, cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// Each frame consumes at least a header, so the loop is bounded.
		for i := 0; i <= len(data)/(4+envHeaderLen); i++ {
			before := len(data) - r.Len()
			var e envelope
			err := readEnvelope(r, &e)
			if err == io.EOF {
				if before != len(data) {
					t.Fatalf("io.EOF with %d bytes unread", len(data)-before)
				}
				return
			}
			if err != nil {
				return
			}
			consumed := data[before : len(data)-r.Len()]
			if again := appendEnvelope(nil, &e); !bytes.Equal(again, consumed) {
				t.Fatalf("envelope %+v re-encodes to %x, consumed %x", e, again, consumed)
			}
		}
	})
}

// fill sets every exported field v reaches to a value no other field
// holds, recursing into structs, slices and maps, so a field the control
// codec does not carry cannot round-trip. Integers alternate in sign and
// need several varint bytes.
func fill(t testing.TB, v reflect.Value, next *int64) {
	t.Helper()
	*next++
	n := *next << 33
	if *next%2 == 1 {
		n = -n
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), next)
			}
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(n)
	case reflect.Uint64:
		v.SetUint(uint64(*next) << 33)
	case reflect.Uint8:
		v.SetUint(uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 3; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(t, k, next)
			fill(t, e, next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		t.Fatalf("fill: no value for %s (kind %s): teach the control codec and fill it", v.Type(), v.Kind())
	}
}

func filledRequest(t testing.TB) Request {
	var req Request
	next := int64(0)
	fill(t, reflect.ValueOf(&req).Elem(), &next)
	return req
}

func filledResponse(t testing.TB) Response {
	var resp Response
	next := int64(100)
	fill(t, reflect.ValueOf(&resp).Elem(), &next)
	return resp
}

// TestControlFieldCoverage: every exported field of Request and Response,
// nested structs and maps included, survives the control codec. A field
// added to either type without codec support fails here.
func TestControlFieldCoverage(t *testing.T) {
	for _, req := range []Request{filledRequest(t), {}} {
		frame, err := appendRequest(nil, &req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readRequest(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("request round trip: %v\n got %+v\nwant %+v", err, got, req)
		}
	}
	resps := []Response{filledResponse(t), {}}
	// A boolean cannot hold a value no other field holds, so each one
	// also travels alone: two flags swapped in the codec fail here.
	for i := 0; i < reflect.TypeOf(Response{}).NumField(); i++ {
		var resp Response
		if f := reflect.ValueOf(&resp).Elem().Field(i); f.Kind() == reflect.Bool {
			f.SetBool(true)
			resps = append(resps, resp)
		}
	}
	for _, resp := range resps {
		frame, err := appendResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readResponse(bytes.NewReader(frame))
		if err != nil || !reflect.DeepEqual(got, resp) {
			t.Fatalf("response round trip: %v\n got %+v\nwant %+v", err, got, resp)
		}
	}
}

// oversized is a frame header (length, then CRC) claiming one byte more
// than wire.MaxFrame.
func oversized() []byte {
	return append(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1), 0, 0, 0, 0)
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// allocated runs f and reports the bytes the process allocated meanwhile.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestControlFrameBound: a control frame whose length exceeds
// wire.MaxFrame is refused from its header, before its body is
// allocated, by either decoder, by a Client reading a response and by
// the daemon's control server, which hangs up.
func TestControlFrameBound(t *testing.T) {
	stream := func() io.Reader {
		return bufio.NewReader(io.MultiReader(bytes.NewReader(oversized()), zeros{}))
	}
	var errs []error
	n := allocated(func() {
		_, err := readRequest(stream())
		errs = append(errs, err)
		_, err = readResponse(stream())
		errs = append(errs, err)
	})
	for _, err := range errs {
		if !errors.Is(err, wire.ErrCorruptRecord) || !strings.Contains(err.Error(), "exceeds MaxFrame") {
			t.Errorf("oversized frame: %v, want refused by its length", err)
		}
	}
	if n >= wire.MaxFrame {
		t.Errorf("refusing two oversized frames allocated %d bytes", n)
	}

	// A Client whose daemon answers with an oversized frame.
	srv, cli := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		defer srv.Close()
		if _, err := readRequest(srv); err == nil {
			srv.Write(oversized()) //nolint:errcheck
			io.Copy(srv, zeros{})  //nolint:errcheck // until the client hangs up
		}
	}()
	c := &Client{conn: cli, r: bufio.NewReader(cli)}
	var err error
	if n := allocated(func() { _, err = c.Status() }); n >= wire.MaxFrame {
		t.Errorf("client refusing an oversized response allocated %d bytes", n)
	}
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Errorf("client read of an oversized response: %v", err)
	}
	c.Close()
	<-served

	// The control server hangs up on an oversized request without reading
	// its body or touching the daemon.
	srv, cli = net.Pipe()
	defer cli.Close()
	go new(Daemon).serveControl(srv)
	if _, err := cli.Write(oversized()); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := cli.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read after an oversized request: %v, want the server's hang-up", err)
	}
}

// controlSeeds are FuzzControlFrame's seeds: valid frames, alone and back
// to back, and the ways a frame can be wrong.
func controlSeeds(t testing.TB) map[string][]byte {
	req, resp := filledRequest(t), filledResponse(t)
	must := func(frame []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	reqFrame := must(appendRequest(nil, &req))
	respFrame := must(appendResponse(nil, &resp))
	status := must(appendRequest(nil, &Request{Op: OpStatus}))
	metrics := must(appendResponse(nil, &Response{ID: 2, N: 3, Metrics: Metrics{
		Sessions: map[int]SessionMetrics{0: {DataFrames: 5}, 1: {Envelopes: 9}},
		Backlog:  map[int]int{0: 0, 1: 4},
	}}))
	seal := func(body []byte) []byte { return must(wire.SealFrame(append(make([]byte, 8), body...), 0)) }
	// A status request whose To field, zero, is written in two bytes.
	long := []byte{ctlVersion, byte(len(OpStatus))}
	long = append(append(long, OpStatus...), 0x80, 0x00, 0, 0, 0, 0)
	// A response whose Backlog lists peer 2 before peer 1.
	desc := must(appendResponse(nil, &Response{Metrics: Metrics{Backlog: map[int]int{1: 4, 2: 5}}}))
	desc = append([]byte(nil), desc[8:]...)
	entries := []byte{2, 2, 8, 4, 10} // count, then zig-zag key and value pairs
	i := bytes.Index(desc, entries)
	if i < 0 {
		t.Fatalf("no backlog %x in %x", entries, desc)
	}
	copy(desc[i:], []byte{2, 4, 10, 2, 8})
	flipped := append([]byte(nil), respFrame...)
	flipped[len(flipped)-1] ^= 1
	return map[string][]byte{
		"request":         reqFrame,
		"response":        respFrame,
		"status":          status,
		"metrics":         metrics,
		"stream":          append(append(append([]byte(nil), status...), reqFrame...), metrics...),
		"torn":            reqFrame[:len(reqFrame)/2],
		"bad-crc":         flipped,
		"non-minimal":     seal(long),
		"descending-keys": seal(desc),
		"oversize-header": oversized(),
		"empty":           {},
	}
}

// FuzzControlFrame feeds arbitrary bytes to the control decoders, as a
// stream of requests and as a stream of responses: what a daemon's
// control listener and a Client read off their sockets. Neither may
// panic, and decoding may allocate at most the frame bound plus a fixed
// multiple of the input. Every frame a decoder accepts re-encodes to
// exactly the bytes it consumed.
//
// Seed corpus lives in testdata/fuzz/FuzzControlFrame; regenerate it with
//
//	DAEMON_GEN_CORPUS=1 go test -run TestGenerateControlCorpus ./internal/daemon/
func FuzzControlFrame(f *testing.F) {
	for _, seed := range controlSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := allocated(func() {
			decodeAll(t, data, readRequest, appendRequest)
			decodeAll(t, data, readResponse, appendResponse)
		})
		// Each decoder may allocate one body it then finds short, up to
		// MaxFrame; what else it builds is bounded by the bytes it parsed.
		if bound := uint64(2*wire.MaxFrame + 32*len(data) + 64<<10); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), n, bound)
		}
	})
}

// decodeAll decodes data as a stream of frames until the first error
// and checks that each accepted frame re-encodes to the bytes it took.
func decodeAll[T any](t *testing.T, data []byte, read func(io.Reader) (T, error), write func([]byte, *T) ([]byte, error)) {
	t.Helper()
	r := bytes.NewReader(data)
	for {
		before := r.Len()
		v, err := read(r)
		if err != nil {
			return
		}
		consumed := data[len(data)-before : len(data)-r.Len()]
		again, err := write(nil, &v)
		if err != nil || !bytes.Equal(again, consumed) {
			t.Fatalf("%+v re-encodes to %x (%v), consumed %x", v, again, err, consumed)
		}
	}
}

// TestGenerateControlCorpus regenerates FuzzControlFrame's committed seed
// corpus. Skipped unless DAEMON_GEN_CORPUS=1 so normal runs never rewrite
// testdata.
func TestGenerateControlCorpus(t *testing.T) {
	if os.Getenv("DAEMON_GEN_CORPUS") == "" {
		t.Skip("corpus generator; set DAEMON_GEN_CORPUS=1 to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzControlFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range controlSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
