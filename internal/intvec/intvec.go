// Package intvec provides the csn vectors of the checkpointing engine: a
// process's csn_i[*] and the csn side of the MR vector a request
// piggybacks. A Vec is a fixed-length vector of ints, most of them zero,
// with the same two properties as bitset.Set:
//
//   - It is adaptive. A vector starts sparse — sorted (index, value)
//     pairs — and promotes itself to a dense []int once more than
//     n/denseFraction entries are present. A min-process instance touches
//     O(participants) processes, so a process at N = 1M with a handful of
//     peers holds a handful of pairs, while a busy process at N = 1024
//     stops paying a binary search and a tail shift per new peer.
//     Promotion happens only past a fixed fraction of n, so a vector
//     always costs O(entries present).
//   - Freeze is copy-on-write. It returns an immutable copy sharing the
//     storage; the next write to the original copies first. Loading a
//     frozen vector shares it the same way, so a prop_cp that forwards
//     the received MR unchanged copies nothing.
//
// The zero Vec reads as all zeros and is the "no vector" of a flags-only
// MR; call New before writing.
package intvec

// denseFraction sets the promotion threshold: a vector of n entries turns
// dense once more than n/denseFraction are present. A sparse entry is two
// ints, so at promotion the dense form is at most four times the size of
// the sparse one.
const denseFraction = 8

// Vec is a vector of n ints. It is not safe for concurrent use.
type Vec struct {
	// s is, sparse, the present entries as (index, value) pairs sorted by
	// index, and, dense, all n values.
	s      []int
	n      int32 // the length; int32 keeps a Vec at four words
	dense  bool
	shared bool // s is referenced by a frozen copy: copy before writing
}

// New returns an all-zero vector of n entries (sparse form).
func New(n int) Vec { return Vec{n: int32(n)} }

// search returns the pair index of k, or the pair index at which k would
// be inserted, and whether it is present.
func (v *Vec) search(k int) (int, bool) {
	lo, hi := 0, len(v.s)/2
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.s[2*mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(v.s)/2 && v.s[2*lo] == k
}

// At returns entry k; entries never set read 0.
func (v *Vec) At(k int) int {
	if v.dense {
		return v.s[k]
	}
	if i, ok := v.search(k); ok {
		return v.s[2*i+1]
	}
	return 0
}

// own gives the vector private storage again after a Freeze or Load
// shared it, with room for extra more ints.
func (v *Vec) own(extra int) {
	if !v.shared {
		return
	}
	s := make([]int, len(v.s), len(v.s)+extra)
	copy(s, v.s)
	v.s, v.shared = s, false
}

// Set writes entry k.
func (v *Vec) Set(k, val int) {
	if v.dense {
		v.own(0)
		v.s[k] = val
		return
	}
	i, ok := v.search(k)
	switch {
	case ok:
		v.own(0)
		v.s[2*i+1] = val
	case val == 0:
		// Absent entries already read 0.
	case len(v.s)/2 >= int(v.n)/denseFraction:
		v.promote()
		v.s[k] = val
	default:
		// A copy after Freeze or Load leaves room for more inserts: prop_cp
		// adds its targets one after another.
		v.own(2 + len(v.s)/2)
		v.s = append(v.s, 0, 0)
		copy(v.s[2*i+2:], v.s[2*i:])
		v.s[2*i], v.s[2*i+1] = k, val
	}
}

// promote converts a sparse vector to dense storage (fresh, so a frozen
// copy keeps the pairs untouched).
func (v *Vec) promote() {
	d := make([]int, int(v.n))
	for i := 0; i < len(v.s); i += 2 {
		d[v.s[i]] = v.s[i+1]
	}
	v.s, v.dense, v.shared = d, true, false
}

// Reset sets every entry to 0, demoting to the sparse form. Private
// storage is kept for reuse.
func (v *Vec) Reset() {
	if v.shared {
		v.s, v.shared = nil, false
	} else {
		v.s = v.s[:0]
	}
	v.dense = false
}

// Load makes v a copy of src (the zero Vec loads as all zeros) in O(1):
// it shares src's storage, and the next write copies it.
func (v *Vec) Load(src Vec) {
	if len(src.s) == 0 {
		v.Reset()
		return
	}
	v.s, v.dense, v.shared = src.s, src.dense, true
}

// Freeze returns an immutable copy. v stays usable; its next write
// copies the storage instead of writing under the returned vector.
func (v *Vec) Freeze() Vec {
	v.shared = true
	return *v
}

// Each calls f(k, value) for every nonzero entry, in ascending k.
func (v *Vec) Each(f func(k, val int)) {
	if v.dense {
		for k, val := range v.s {
			if val != 0 {
				f(k, val)
			}
		}
		return
	}
	for i := 0; i < len(v.s); i += 2 {
		if v.s[i+1] != 0 {
			f(v.s[i], v.s[i+1])
		}
	}
}
