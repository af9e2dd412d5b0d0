// Package dyadic implements the exact termination-detection weights of the
// Huang-style scheme the checkpointing algorithms use.
//
// The paper's prop_cp hands out half of the remaining weight with every
// checkpoint request and keeps the last share, so every weight a request
// or reply carries is a power of two, 2^-k: a Weight stores the exponent
// k. The initiator declares termination when its returned shares sum to
// exactly 1. Floating point cannot do that for deep halving chains (a
// 2^-300 share silently vanishes when added to 1.0), so the running total
// is a Sum: a binary counter whose bit k is worth 2^-k. Adding 2^-k sets
// bit k and carries toward bit 0, so the total is exact by construction,
// is one exactly when bit 0 alone is set, and a carry past bit 0 means it
// exceeded one. Lemma 2 of the paper (weight conservation) can therefore
// be asserted exactly in tests, and neither type allocates once a Sum's
// counter has grown to the deepest share it has seen.
package dyadic

import (
	"fmt"
	"math/bits"
	"strings"
)

// Weight is a share 2^-k, or zero. The zero value is 0. Weights are
// comparable with ==.
type Weight struct {
	e uint32 // 0 is the zero weight; k+1 is 2^-k
}

// Zero returns the weight 0.
func Zero() Weight { return Weight{} }

// One returns the weight 1.
func One() Weight { return Weight{e: 1} }

// Pow returns 2^-k. k must be in [0, MaxExp].
func Pow(k int) Weight {
	if k < 0 || k > MaxExp {
		panic(fmt.Sprintf("dyadic: exponent %d out of range", k))
	}
	return Weight{e: uint32(k) + 1}
}

// IsZero reports whether w == 0.
func (w Weight) IsZero() bool { return w.e == 0 }

// IsOne reports whether w == 1.
func (w Weight) IsOne() bool { return w.e == 1 }

// Exp returns k for w = 2^-k; it panics on the zero weight, which has no
// exponent.
func (w Weight) Exp() int {
	if w.e == 0 {
		panic("dyadic: exponent of the zero weight")
	}
	return int(w.e - 1)
}

// Half returns w/2.
func (w Weight) Half() Weight {
	if w.e == 0 {
		return w
	}
	return Weight{e: w.e + 1}
}

// String renders the weight as "0", "1" or "1/2^k".
func (w Weight) String() string {
	switch w.e {
	case 0:
		return "0"
	case 1:
		return "1"
	default:
		return fmt.Sprintf("1/2^%d", w.e-1)
	}
}

// AppendBinary appends w's encoding to dst: the 4-byte big-endian
// exponent followed by the numerator byte 0x01, or the 4 zero bytes alone
// for the zero weight. With room in dst it allocates nothing.
func (w Weight) AppendBinary(dst []byte) []byte {
	if w.e == 0 {
		return append(dst, 0, 0, 0, 0)
	}
	k := w.e - 1
	return append(dst, byte(k>>24), byte(k>>16), byte(k>>8), byte(k), 1)
}

// MaxExp bounds the exponent accepted off the wire. Legitimate weights
// come from halving chains no deeper than the number of requests one
// instance sends, far below this; the bound also caps the counter a Sum
// grows for one share at MaxExp/64 words.
const MaxExp = 1 << 20

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It accepts
// exactly what AppendBinary writes: a numerator other than the single
// byte 0x01 is not a power of two and is refused.
func (w *Weight) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("dyadic: short weight encoding (%d bytes)", len(data))
	}
	k := uint32(data[0])<<24 | uint32(data[1])<<16 | uint32(data[2])<<8 | uint32(data[3])
	if k > MaxExp {
		return fmt.Errorf("dyadic: weight exponent %d exceeds limit %d", k, MaxExp)
	}
	switch {
	case len(data) == 4:
		*w = Weight{}
	case len(data) == 5 && data[4] == 1:
		*w = Weight{e: k + 1}
	default:
		return fmt.Errorf("dyadic: weight numerator %x is not 1", data[4:])
	}
	return nil
}

// Sum is an exact running total of weights. The zero value is 0. A Sum
// reuses its counter across Reset, so accumulating allocates only when a
// share deeper than any before it arrives.
type Sum struct {
	// words[i] holds bits k = 64i … 64i+63, bit k at position 63-k%64, so
	// each word reads as an unsigned integer and a carry out of word i
	// lands in the lowest position of word i-1.
	words []uint64
	ones  int  // set bits across words
	over  bool // a carry passed bit 0: the total reached 2
}

// Add adds w to the total.
func (s *Sum) Add(w Weight) {
	if w.e == 0 {
		return
	}
	k := int(w.e - 1)
	i := k / 64
	if i >= len(s.words) {
		s.words = append(s.words, make([]uint64, i+1-len(s.words))...)
	}
	bit := uint64(1) << (63 - k%64)
	for {
		old := s.words[i]
		sum, carry := bits.Add64(old, bit, 0)
		s.words[i] = sum
		s.ones += bits.OnesCount64(sum) - bits.OnesCount64(old)
		if carry == 0 {
			return
		}
		if i == 0 {
			s.over = true
			return
		}
		i--
		bit = 1
	}
}

// Reset sets the total back to 0, keeping the counter's storage.
func (s *Sum) Reset() {
	clear(s.words)
	s.ones = 0
	s.over = false
}

// IsZero reports whether the total is 0.
func (s *Sum) IsZero() bool { return s.ones == 0 && !s.over }

// IsOne reports whether the total is exactly 1.
func (s *Sum) IsOne() bool { return !s.over && s.ones == 1 && s.words[0] == 1<<63 }

// Over reports whether the total exceeds 1.
func (s *Sum) Over() bool { return s.over || (s.ones > 1 && s.words[0]>>63 == 1) }

// Each calls f with the shares the total is made of, largest first: one
// 2^-k per set bit k. Once the total has reached 2 (Over after a carry
// past bit 0) the shares are those of the total minus 2.
func (s *Sum) Each(f func(Weight)) {
	for i, word := range s.words {
		for word != 0 {
			lz := bits.LeadingZeros64(word)
			f(Weight{e: uint32(64*i+lz) + 1})
			word &^= 1 << (63 - lz)
		}
	}
}

// String renders the total as "0", "1", a sum of shares such as
// "1/2^1+1/2^3", or with a leading "2+" once a carry passed bit 0.
func (s *Sum) String() string {
	if s.IsZero() {
		return "0"
	}
	var terms []string
	if s.over {
		terms = append(terms, "2")
	}
	s.Each(func(w Weight) { terms = append(terms, w.String()) })
	return strings.Join(terms, "+")
}
