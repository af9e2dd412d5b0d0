// Package dyadic implements exact dyadic-rational weights for the
// Huang-style termination detection used by the checkpointing algorithms.
//
// The paper's algorithm hands out half of the remaining weight with every
// checkpoint request and declares termination when the initiator's weight
// returns to exactly 1. Floating point cannot represent deep halving chains
// exactly (a 2^-300 share silently vanishes when added to 1.0), so Weight
// stores the value as num/2^exp with an arbitrary-precision numerator. All
// operations are exact; Lemma 2 of the paper (weight conservation) can
// therefore be asserted with == in tests.
package dyadic

import (
	"fmt"
	"math/big"
	"slices"
)

// Weight is an immutable non-negative dyadic rational num/2^exp.
// The zero value is 0.
type Weight struct {
	num *big.Int // nil means 0
	exp uint
}

// Zero returns the weight 0.
func Zero() Weight { return Weight{} }

// One returns the weight 1.
func One() Weight { return Weight{num: big.NewInt(1)} }

// FromFraction returns num/2^exp. num must be non-negative.
func FromFraction(num int64, exp uint) Weight {
	if num < 0 {
		panic("dyadic: negative weight")
	}
	if num == 0 {
		return Weight{}
	}
	return Weight{num: big.NewInt(num), exp: exp}.normalize()
}

// normalize removes common factors of two so equal values compare equal.
func (w Weight) normalize() Weight {
	if w.num == nil || w.num.Sign() == 0 {
		return Weight{}
	}
	num := new(big.Int).Set(w.num)
	exp := w.exp
	for exp > 0 && num.Bit(0) == 0 {
		num.Rsh(num, 1)
		exp--
	}
	return Weight{num: num, exp: exp}
}

// IsZero reports whether w == 0.
func (w Weight) IsZero() bool { return w.num == nil || w.num.Sign() == 0 }

// IsOne reports whether w == 1.
func (w Weight) IsOne() bool {
	return w.num != nil && w.exp == 0 && w.num.Cmp(big.NewInt(1)) == 0
}

// Half returns w/2.
func (w Weight) Half() Weight {
	if w.IsZero() {
		return Weight{}
	}
	return Weight{num: new(big.Int).Set(w.num), exp: w.exp + 1}
}

// Add returns w + o.
func (w Weight) Add(o Weight) Weight {
	if w.IsZero() {
		return o.normalize()
	}
	if o.IsZero() {
		return w.normalize()
	}
	a, b := w, o
	if a.exp < b.exp {
		a, b = b, a
	}
	// a has the larger exponent; scale b up to a.exp.
	bn := new(big.Int).Lsh(b.num, a.exp-b.exp)
	sum := new(big.Int).Add(a.num, bn)
	return Weight{num: sum, exp: a.exp}.normalize()
}

// Sub returns w - o. It panics if the result would be negative, because a
// negative weight always indicates a protocol bug.
func (w Weight) Sub(o Weight) Weight {
	if o.IsZero() {
		return w.normalize()
	}
	if w.IsZero() {
		panic("dyadic: negative weight result")
	}
	a, b := w, o
	maxExp := a.exp
	if b.exp > maxExp {
		maxExp = b.exp
	}
	an := new(big.Int).Lsh(a.num, maxExp-a.exp)
	bn := new(big.Int).Lsh(b.num, maxExp-b.exp)
	diff := new(big.Int).Sub(an, bn)
	if diff.Sign() < 0 {
		panic("dyadic: negative weight result")
	}
	return Weight{num: diff, exp: maxExp}.normalize()
}

// Cmp compares w and o: -1 if w < o, 0 if equal, +1 if w > o.
func (w Weight) Cmp(o Weight) int {
	if w.IsZero() && o.IsZero() {
		return 0
	}
	if w.IsZero() {
		return -1
	}
	if o.IsZero() {
		return 1
	}
	maxExp := w.exp
	if o.exp > maxExp {
		maxExp = o.exp
	}
	an := new(big.Int).Lsh(w.num, maxExp-w.exp)
	bn := new(big.Int).Lsh(o.num, maxExp-o.exp)
	return an.Cmp(bn)
}

// Equal reports whether w == o exactly.
func (w Weight) Equal(o Weight) bool { return w.Cmp(o) == 0 }

// Float64 returns an approximate float value, for reporting only.
func (w Weight) Float64() float64 {
	if w.IsZero() {
		return 0
	}
	f := new(big.Float).SetInt(w.num)
	f.SetMantExp(f, -int(w.exp))
	v, _ := f.Float64()
	return v
}

// String renders the weight as "num/2^exp" (or "0"/"1").
func (w Weight) String() string {
	switch {
	case w.IsZero():
		return "0"
	case w.IsOne():
		return "1"
	case w.exp == 0:
		return w.num.String()
	default:
		return fmt.Sprintf("%s/2^%d", w.num.String(), w.exp)
	}
}

// Sum adds a slice of weights exactly: the reference checker the Lemma 2
// weight tests compare split shares against.
func Sum(ws ...Weight) Weight {
	total := Zero()
	for _, w := range ws {
		total = total.Add(w)
	}
	return total
}

// MarshalBinary implements encoding.BinaryMarshaler: 4-byte big-endian
// exponent followed by the numerator's big-endian bytes (empty for zero).
func (w Weight) MarshalBinary() ([]byte, error) {
	return w.AppendBinary(nil), nil
}

// AppendBinary appends MarshalBinary's encoding to dst; with room in dst
// it allocates nothing. Every constructor and operation returns a
// normalized weight, so equal weights append equal bytes.
func (w Weight) AppendBinary(dst []byte) []byte {
	if w.IsZero() {
		return append(dst, 0, 0, 0, 0)
	}
	n := (w.num.BitLen() + 7) / 8
	dst = append(dst, byte(w.exp>>24), byte(w.exp>>16), byte(w.exp>>8), byte(w.exp))
	dst = slices.Grow(dst, n)[:len(dst)+n]
	w.num.FillBytes(dst[len(dst)-n:])
	return dst
}

// MaxExp bounds the exponent accepted off the wire. Legitimate weights
// come from halving chains no deeper than the number of requests one
// instance sends, far below this. Without the bound, a corrupt frame
// carrying an exponent near 2^32 would make every later Add/Sub/Cmp
// left-shift a big.Int by that amount — a multi-hundred-megabyte
// allocation from a 50-byte message.
const MaxExp = 1 << 20

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (w *Weight) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("dyadic: short weight encoding (%d bytes)", len(data))
	}
	exp := uint(data[0])<<24 | uint(data[1])<<16 | uint(data[2])<<8 | uint(data[3])
	if exp > MaxExp {
		return fmt.Errorf("dyadic: weight exponent %d exceeds limit %d", exp, uint(MaxExp))
	}
	if len(data) == 4 {
		*w = Weight{}
		return nil
	}
	num := new(big.Int).SetBytes(data[4:])
	*w = Weight{num: num, exp: exp}.normalize()
	return nil
}
