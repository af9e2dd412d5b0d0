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
	// Mutant names the seeded defect the schedule was found against (a
	// file under internal/explore/testdata/mutants); empty for the
	// correct engine or when the writer does not know.
	Mutant string
	// N is the process count the schedule was recorded at; 0 in a
	// version-1 record, which predates the field.
	N int
	// Seed is the random-walk seed the schedule came from, shrunk or
	// not; 0 for exhaustive or hand-written schedules.
	Seed uint64
	// Choices holds the chosen index at every decision point, in order.
	// Decision points past the end replay as 0 (schedule order).
	Choices []int
}

// A version-1 body names its mutant by number, through scheduleV1Mutants,
// and records no N; version 2 names the mutant and records N. Only
// version 2 is written, and version 1 still decodes, so the committed
// corpus needs no rewriting.
const (
	scheduleVersion1 = 1
	scheduleVersion  = 2
	// maxScheduleName bounds the scenario and mutant names.
	maxScheduleName = 1024
	// maxScheduleChoice bounds a single tie-break choice and N; no
	// instant ever has this many simultaneous events in a bounded
	// scenario.
	maxScheduleChoice = 1 << 20
)

// scheduleV1Mutants maps a version-1 mutation number to its mutant.
var scheduleV1Mutants = [...]string{"", "mr-suppression", "skip-mutable", "skip-sent-gate"}

// AppendScheduleRecord appends the framed record to dst and returns the
// extended slice.
func AppendScheduleRecord(dst []byte, r *ScheduleRecord) ([]byte, error) {
	if len(r.Name) > maxScheduleName || len(r.Mutant) > maxScheduleName {
		return dst, fmt.Errorf("wire: encode schedule: name too long (%d, %d bytes)", len(r.Name), len(r.Mutant))
	}
	if r.N < 0 || r.N > maxScheduleChoice {
		return dst, fmt.Errorf("wire: encode schedule: n %d out of range", r.N)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, scheduleVersion)
	dst = AppendBytes(AppendBytes(dst, r.Name), r.Mutant)
	dst = binary.AppendUvarint(dst, uint64(r.N))
	dst = binary.AppendUvarint(dst, r.Seed)
	dst = binary.AppendUvarint(dst, uint64(len(r.Choices)))
	for _, c := range r.Choices {
		if c < 0 || c > maxScheduleChoice {
			return dst[:start], fmt.Errorf("wire: encode schedule: choice %d out of range", c)
		}
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	return SealFrame(dst, start)
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
	version := byte(scheduleVersion)
	if len(body) > 0 && body[0] == scheduleVersion1 {
		version = scheduleVersion1
	}
	c, err := OpenBody(body, version)
	if err != nil {
		return nil, n, err
	}
	name := c.Bytes()
	var mutant string
	var procs uint64
	if version == scheduleVersion1 {
		num := c.Uvarint()
		if num >= uint64(len(scheduleV1Mutants)) {
			return nil, n, fmt.Errorf("%w: version-1 mutation %d", ErrCorruptRecord, num)
		}
		mutant = scheduleV1Mutants[num]
	} else {
		mutant, procs = string(c.Bytes()), c.Uvarint()
	}
	if len(name) > maxScheduleName || len(mutant) > maxScheduleName || procs > maxScheduleChoice {
		return nil, n, fmt.Errorf("%w: names of %d and %d bytes, n %d", ErrCorruptRecord, len(name), len(mutant), procs)
	}
	rec := &ScheduleRecord{Name: string(name), Mutant: mutant, N: int(procs), Seed: c.Uvarint()}
	// Every choice takes at least one body byte.
	rec.Choices = make([]int, c.Count(1))
	for i := range rec.Choices {
		choice := c.Uvarint()
		if choice > maxScheduleChoice {
			return nil, n, fmt.Errorf("%w: choice %d out of range", ErrCorruptRecord, choice)
		}
		rec.Choices[i] = int(choice)
	}
	if err := c.Close(); err != nil {
		return nil, n, err
	}
	return rec, n, nil
}
