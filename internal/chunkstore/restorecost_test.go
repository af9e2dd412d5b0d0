package chunkstore

import (
	"math/rand"
	"testing"
	"time"

	"mutablecp/internal/stable/errfs"
)

// TestRestoreCost prices the restore transfer: the deduped
// distinct-chunk bytes of the newest permanent manifest, not the
// logical image length and not the fixed 512KB the control-plane-only
// runs charge.
func TestRestoreCost(t *testing.T) {
	fs := errfs.New()
	opts := testOpts(fs)
	s, err := Open("cs", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.RestoreCost(0); ok {
		t.Fatal("restore cost priced before any permanent payload")
	}

	// 8 chunks + a 100-byte tail; chunks 2..5 are identical (a zeroed
	// region), so a restore moves 5 distinct chunks + tail, not 8 + tail.
	chunk := opts.ChunkBytes
	rng := rand.New(rand.NewSource(7))
	img := randImage(rng, 8*chunk+100)
	for c := 2; c <= 5; c++ {
		copy(img[c*chunk:(c+1)*chunk], make([]byte, chunk))
	}
	if _, err := s.PutTentative(0, trig(0, 1), time.Second, img); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RestoreCost(0); ok {
		t.Fatal("a tentative payload must not price a restore")
	}
	if err := s.CommitTentative(0, trig(0, 1), 2*time.Second); err != nil {
		t.Fatal(err)
	}

	want := uint64(5*chunk + 100)
	got, ok := s.RestoreCost(0)
	if !ok || got != want {
		t.Fatalf("RestoreCost = %d,%v, want %d,true", got, ok, want)
	}
	if got >= uint64(len(img)) {
		t.Fatalf("restore cost %d not below logical size %d despite duplicate chunks", got, len(img))
	}

	// A second commit reprices to the newest manifest.
	img2 := randImage(rng, 3*chunk)
	if _, err := s.PutTentative(0, trig(0, 2), 3*time.Second, img2); err != nil {
		t.Fatal(err)
	}
	if err := s.CommitTentative(0, trig(0, 2), 4*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.RestoreCost(0); !ok || got != uint64(3*chunk) {
		t.Fatalf("after second commit RestoreCost = %d,%v, want %d,true", got, ok, 3*chunk)
	}
}
