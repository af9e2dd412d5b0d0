package wire

// Persisted tie-break schedules: what internal/explore stores for recorded
// counterexamples, one record frame (see the package comment) each. A
// schedule is a long run of tiny integers (most tie-break choices fit one
// byte), so the uvarint body keeps the committed regression corpus small
// and diffable byte-for-byte.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ScheduleRecord is one recorded schedule: the sequence of tie-break
// choices taken at each decision point of a scenario run, with enough
// metadata to replay it against the scenario that produced it.
type ScheduleRecord struct {
	// Name is the scenario the schedule belongs to.
	Name string
	// Mutation is the engine mutation the schedule was found against
	// (core.Mutation's numeric value; wire stays protocol-agnostic).
	Mutation uint8
	// Seed is the random-walk seed that first produced the schedule
	// (0 for shrunken or hand-written schedules).
	Seed uint64
	// Choices holds the chosen index at every decision point, in order.
	// Decision points past the end replay as 0 (schedule order).
	Choices []int
}

const (
	scheduleVersion = 1
	// maxScheduleName bounds the scenario-name field.
	maxScheduleName = 1024
	// maxScheduleChoice bounds a single tie-break choice; no instant ever
	// has this many simultaneous events in a bounded scenario.
	maxScheduleChoice = 1 << 20
)

// AppendScheduleRecord appends the framed record to dst and returns the
// extended slice.
func AppendScheduleRecord(dst []byte, r *ScheduleRecord) ([]byte, error) {
	if len(r.Name) > maxScheduleName {
		return dst, fmt.Errorf("wire: encode schedule: name too long (%d bytes)", len(r.Name))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, scheduleVersion)
	dst = binary.AppendUvarint(dst, uint64(len(r.Name)))
	dst = append(dst, r.Name...)
	dst = binary.AppendUvarint(dst, uint64(r.Mutation))
	dst = binary.AppendUvarint(dst, r.Seed)
	dst = binary.AppendUvarint(dst, uint64(len(r.Choices)))
	for _, c := range r.Choices {
		if c < 0 || c > maxScheduleChoice {
			return dst[:start], fmt.Errorf("wire: encode schedule: choice %d out of range", c)
		}
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return sealFrame(dst, start)
}

// EncodeScheduleRecord writes one framed record and returns the number of
// bytes written.
func EncodeScheduleRecord(w io.Writer, r *ScheduleRecord) (int, error) {
	frame, err := AppendScheduleRecord(nil, r)
	if err != nil {
		return 0, err
	}
	return w.Write(frame)
}

// DecodeScheduleRecord reads one framed record and reports how many bytes
// of the stream it consumed. Errors follow DecodeStableRecord exactly.
func DecodeScheduleRecord(rd io.Reader) (*ScheduleRecord, int, error) {
	body, n, err := ReadFrame(rd)
	if err != nil {
		return nil, n, err
	}
	c, err := openBody(body, scheduleVersion)
	if err != nil {
		return nil, n, err
	}
	name, mutation := c.bytes(), c.uvarint()
	if len(name) > maxScheduleName || mutation > 0xff {
		return nil, n, fmt.Errorf("%w: name of %d bytes, mutation %d", ErrCorruptRecord, len(name), mutation)
	}
	rec := &ScheduleRecord{Name: string(name), Mutation: uint8(mutation), Seed: c.uvarint()}
	// Every choice takes at least one body byte.
	rec.Choices = make([]int, c.count(1))
	for i := range rec.Choices {
		choice := c.uvarint()
		if choice > maxScheduleChoice {
			return nil, n, fmt.Errorf("%w: choice %d out of range", ErrCorruptRecord, choice)
		}
		rec.Choices[i] = int(choice)
	}
	if err := c.close(); err != nil {
		return nil, n, err
	}
	return rec, n, nil
}
