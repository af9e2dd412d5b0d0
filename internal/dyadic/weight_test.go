package dyadic_test

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"mutablecp/internal/dyadic"
)

// sumOf adds shares into a fresh counter.
func sumOf(ws ...dyadic.Weight) *dyadic.Sum {
	var s dyadic.Sum
	for _, w := range ws {
		s.Add(w)
	}
	return &s
}

func TestZeroAndOne(t *testing.T) {
	if !dyadic.Zero().IsZero() {
		t.Fatal("Zero is not zero")
	}
	if !dyadic.One().IsOne() {
		t.Fatal("One is not one")
	}
	if dyadic.One().IsZero() || dyadic.Zero().IsOne() {
		t.Fatal("One/Zero confusion")
	}
	var s dyadic.Sum
	if !s.IsZero() || s.IsOne() || s.Over() {
		t.Fatal("the zero Sum is not 0")
	}
}

func TestHalvesSumBackToOne(t *testing.T) {
	// Simulate the paper's weight distribution: the initiator halves its
	// weight per request; every halved share eventually returns. The sum
	// must be exactly 1 no matter how deep the tree.
	w := dyadic.One()
	var shares []dyadic.Weight
	for i := 0; i < 400; i++ { // far deeper than float64 could track
		w = w.Half()
		shares = append(shares, w)
	}
	total := sumOf(w) // the retained remainder
	for _, s := range shares {
		if total.IsOne() {
			t.Fatalf("one reached before every share returned: %v", total)
		}
		total.Add(s)
	}
	if !total.IsOne() {
		t.Fatalf("sum of halves = %v, want exactly 1", total)
	}
}

func TestFloat64WouldLoseDeepShares(t *testing.T) {
	// Documents why the package exists: with float64 the 2^-200 share
	// vanishes, with dyadic it does not.
	f := 1.0
	for i := 0; i < 200; i++ {
		f /= 2
	}
	if 1.0+f != 1.0 {
		t.Skip("platform float64 unexpectedly precise")
	}
	total := sumOf(dyadic.One(), dyadic.Pow(200))
	if total.IsOne() || !total.Over() {
		t.Fatalf("1 + 2^-200 = %v: the deep share was lost", total)
	}
}

// TestCmp: the one comparison termination detection makes is the total
// against 1 — below, equal, or over.
func TestCmp(t *testing.T) {
	cases := []struct {
		shares    []dyadic.Weight
		one, over bool
	}{
		{nil, false, false},
		{[]dyadic.Weight{dyadic.One()}, true, false},
		{[]dyadic.Weight{dyadic.Pow(1), dyadic.Pow(1)}, true, false}, // 1/2 + 1/2 == 1
		{[]dyadic.Weight{dyadic.Pow(1)}, false, false},
		{[]dyadic.Weight{dyadic.One(), dyadic.Pow(1)}, false, true},
		{[]dyadic.Weight{dyadic.One(), dyadic.One()}, false, true}, // carry past bit 0
	}
	for _, c := range cases {
		s := sumOf(c.shares...)
		if s.IsOne() != c.one || s.Over() != c.over {
			t.Errorf("%v: IsOne %v Over %v, want %v %v", c.shares, s.IsOne(), s.Over(), c.one, c.over)
		}
	}
}

// TestCmpMixedExponents: shares of many exponents land just below 1, at
// 1, then just above it.
func TestCmpMixedExponents(t *testing.T) {
	var s dyadic.Sum
	for k := 1; k <= 130; k++ { // crosses two counter words
		s.Add(dyadic.Pow(k))
	}
	if s.IsOne() || s.Over() {
		t.Fatalf("1 - 2^-130 = %v reads as one or over", &s)
	}
	s.Add(dyadic.Pow(130))
	if !s.IsOne() {
		t.Fatalf("1 - 2^-130 + 2^-130 = %v, want 1", &s)
	}
	s.Add(dyadic.Pow(19))
	if s.IsOne() || !s.Over() {
		t.Fatalf("1 + 2^-19 = %v is not over", &s)
	}
}

// TestNormalization: a total has one representation, however its shares
// were split.
func TestNormalization(t *testing.T) {
	a := sumOf(dyadic.Pow(1), dyadic.Pow(2), dyadic.Pow(2))
	if !a.IsOne() {
		t.Fatalf("1/2+1/4+1/4 = %v, want 1", a)
	}
	b := sumOf(dyadic.Pow(3), dyadic.Pow(4), dyadic.Pow(4))
	if got, want := b.String(), sumOf(dyadic.Pow(2)).String(); got != want {
		t.Fatalf("1/8+1/16+1/16 = %s, want %s", got, want)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		got  string
		want string
	}{
		{dyadic.Zero().String(), "0"},
		{dyadic.One().String(), "1"},
		{dyadic.Pow(1).String(), "1/2^1"},
		{dyadic.Pow(3).String(), "1/2^3"},
		{sumOf().String(), "0"},
		{sumOf(dyadic.Pow(1), dyadic.Pow(1)).String(), "1"},
		{sumOf(dyadic.Pow(3), dyadic.Pow(1)).String(), "1/2^1+1/2^3"},
		{sumOf(dyadic.One(), dyadic.One(), dyadic.Pow(2)).String(), "2+1/2^2"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String = %q, want %q", c.got, c.want)
		}
	}
}

func TestSum(t *testing.T) {
	if got := sumOf(dyadic.Pow(1), dyadic.Pow(2), dyadic.Pow(3), dyadic.Pow(3)); !got.IsOne() {
		t.Fatalf("1/2+1/4+1/8+1/8 = %v, want 1", got)
	}
	var s dyadic.Sum
	s.Add(dyadic.One())
	s.Add(dyadic.One())
	s.Reset()
	if !s.IsZero() || s.Over() {
		t.Fatalf("Reset left %v", &s)
	}
	s.Add(dyadic.Zero())
	if !s.IsZero() {
		t.Fatal("adding the zero weight changed the total")
	}
}

func TestPowOutOfRangePanics(t *testing.T) {
	for _, k := range []int{-1, dyadic.MaxExp + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for exponent %d", k)
				}
			}()
			dyadic.Pow(k)
		}()
	}
}

// randomShares draws a multiset of small shares for property tests.
func randomShares(r *rand.Rand, n, maxExp int) []dyadic.Weight {
	ws := make([]dyadic.Weight, n)
	for i := range ws {
		ws[i] = dyadic.Pow(r.Intn(maxExp + 1))
	}
	return ws
}

func TestPropAddCommutative(t *testing.T) {
	f := func(e1, e2 uint8) bool {
		a, b := dyadic.Pow(int(e1%160)), dyadic.Pow(int(e2%160))
		return sumOf(a, b).String() == sumOf(b, a).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropAddAssociative: the total of a multiset does not depend on the
// order its shares arrive in.
func TestPropAddAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		ws := randomShares(r, 1+r.Intn(12), 70)
		shuffled := append([]dyadic.Weight(nil), ws...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if a, b := sumOf(ws...), sumOf(shuffled...); a.String() != b.String() || a.Over() != b.Over() {
			t.Fatalf("%v sums to %v, reordered %v", ws, a, b)
		}
	}
}

func TestPropHalfPlusHalfIsIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		w := dyadic.Pow(r.Intn(300))
		if got, want := sumOf(w.Half(), w.Half()).String(), w.String(); got != want {
			t.Fatalf("w/2 + w/2 = %s, want %s", got, want)
		}
	}
}

func TestPropConservationUnderRandomSplits(t *testing.T) {
	// Weight-conservation invariant (the paper's Lemma 2): starting from
	// 1, repeatedly pick a share and split it in half; the multiset always
	// sums to exactly 1.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		shares := []dyadic.Weight{dyadic.One()}
		for step := 0; step < 200; step++ {
			i := r.Intn(len(shares))
			h := shares[i].Half()
			shares[i] = h
			shares = append(shares, h)
		}
		if got := sumOf(shares...); !got.IsOne() {
			t.Fatalf("trial %d: sum = %v, want 1", trial, got)
		}
	}
}

// TestPropSumMatchesBig: any multiset of shares sums through the counter
// to exactly what math/big computes, and the IsOne/Over verdicts agree
// with the exact comparison against 1.
func TestPropSumMatchesBig(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		maxExp := []int{3, 8, 70, 200}[trial%4]
		ws := randomShares(r, r.Intn(20), maxExp)
		if trial%5 == 0 {
			// Splits of 1 with a share added or left out: the totals
			// around the verdict boundary.
			ws = ws[:0]
			w := dyadic.One()
			for d := r.Intn(maxExp); d > 0; d-- {
				w = w.Half()
				ws = append(ws, w)
			}
			ws = append(ws, w)
			switch r.Intn(3) {
			case 1:
				ws = ws[:len(ws)-1]
			case 2:
				ws = append(ws, dyadic.Pow(r.Intn(maxExp+1)))
			}
		}
		want := new(big.Rat)
		for _, w := range ws {
			want.Add(want, new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(w.Exp()))))
		}
		s := sumOf(ws...)
		one := big.NewRat(1, 1)
		if s.IsOne() != (want.Cmp(one) == 0) || s.Over() != (want.Cmp(one) > 0) || s.IsZero() != (want.Sign() == 0) {
			t.Fatalf("%v: IsOne %v Over %v IsZero %v, exact total %v", ws, s.IsOne(), s.Over(), s.IsZero(), want)
		}
		if want.Cmp(big.NewRat(2, 1)) >= 0 {
			continue // a carry past bit 0 keeps the verdict, not the value
		}
		got := new(big.Rat)
		s.Each(func(w dyadic.Weight) {
			got.Add(got, new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), uint(w.Exp()))))
		})
		if got.Cmp(want) != 0 {
			t.Fatalf("%v: counter holds %v, exact total %v", ws, got, want)
		}
	}
}

// TestHalfAndAccumulateAllocFree: a halving chain and the counter it
// returns to allocate nothing once the counter has grown to its depth.
func TestHalfAndAccumulateAllocFree(t *testing.T) {
	var s dyadic.Sum
	run := func() {
		s.Reset()
		w := dyadic.One()
		for i := 0; i < 300; i++ {
			w = w.Half()
			s.Add(w)
		}
		s.Add(w)
		if !s.IsOne() {
			t.Fatalf("sum = %v, want 1", &s)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("%v allocations per halving chain, want 0", allocs)
	}
}

func TestMarshalRoundTripEdgeCases(t *testing.T) {
	for _, w := range []dyadic.Weight{
		dyadic.Zero(), dyadic.One(), dyadic.Pow(300), dyadic.Pow(dyadic.MaxExp),
	} {
		data := w.AppendBinary(nil)
		var got dyadic.Weight
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("round trip %v -> %v", w, got)
		}
	}
	var w dyadic.Weight
	if err := w.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("short encoding accepted")
	}
}

// TestMarshalIsExponentThenOne pins the encoding of a share: its exponent
// and the numerator byte 0x01, the bytes the arbitrary-precision
// representation wrote for a power of two.
func TestMarshalIsExponentThenOne(t *testing.T) {
	got := dyadic.Pow(8).AppendBinary(nil)
	if want := []byte{0, 0, 0, 8, 1}; string(got) != string(want) {
		t.Fatalf("2^-8 encodes as %x, want %x", got, want)
	}
	got = dyadic.Zero().AppendBinary(nil)
	if want := []byte{0, 0, 0, 0}; string(got) != string(want) {
		t.Fatalf("0 encodes as %x, want %x", got, want)
	}
}

// TestUnmarshalRefusesOtherNumerators: only a power of two is a weight,
// so any numerator but the single byte 0x01 is a decode error.
func TestUnmarshalRefusesOtherNumerators(t *testing.T) {
	for _, num := range [][]byte{{3}, {2}, {0}, {0, 1}, {1, 0}} {
		var w dyadic.Weight
		if err := w.UnmarshalBinary(append([]byte{0, 0, 0, 5}, num...)); err == nil {
			t.Errorf("numerator %x accepted as %v", num, w)
		}
	}
}

func TestHalfOfZero(t *testing.T) {
	if !dyadic.Zero().Half().IsZero() {
		t.Fatal("0/2 != 0")
	}
}

// TestUnmarshalExponentBound: a crafted encoding with a huge exponent must
// be rejected: a Sum would grow a counter word per 64 levels of it.
func TestUnmarshalExponentBound(t *testing.T) {
	var w dyadic.Weight
	if err := w.UnmarshalBinary([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("exponent 2^32-1 accepted")
	}
	encode := func(exp uint) []byte {
		return []byte{byte(exp >> 24), byte(exp >> 16), byte(exp >> 8), byte(exp), 0x01}
	}
	if err := w.UnmarshalBinary(encode(dyadic.MaxExp + 1)); err == nil {
		t.Fatal("exponent MaxExp+1 accepted")
	}
	// The boundary value itself is legal.
	if err := w.UnmarshalBinary(encode(dyadic.MaxExp)); err != nil {
		t.Fatalf("exponent MaxExp rejected: %v", err)
	}
	// Huge exponents on a zero weight (4-byte encoding) are rejected too:
	// the exponent field is meaningless there but still attacker-chosen.
	if err := w.UnmarshalBinary([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("zero weight with giant exponent accepted")
	}
}
