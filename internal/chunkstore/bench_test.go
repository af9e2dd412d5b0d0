package chunkstore

import (
	"testing"
	"time"

	"mutablecp/internal/protocol"
	"mutablecp/internal/stable/errfs"
	"mutablecp/internal/workload"
)

// BenchmarkSaveCommit is one payload4 checkpoint on the data plane alone:
// a tentative save of a 256 KiB skewed image in 4 KiB chunks, then its
// commit, on an in-memory disk with the daemon's options. Drawing the
// next image is not timed.
func BenchmarkSaveCommit(b *testing.B) {
	const imageBytes, chunkBytes = 256 << 10, 4 << 10
	s, err := Open("cs", Options{FS: errfs.New(), ChunkBytes: chunkBytes, Keep: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src := workload.NewImages(workload.ImagesConfig{
		Procs: 1, Bytes: imageBytes, PageBytes: chunkBytes, Profile: workload.ProfileSkewed, Seed: 1,
	})
	b.ReportAllocs()
	b.SetBytes(imageBytes)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		b.StopTimer()
		img := src.Image(0)
		b.StartTimer()
		tr := protocol.Trigger{Pid: 0, Inum: i}
		if _, err := s.PutTentative(0, tr, 0, img); err != nil {
			b.Fatal(err)
		}
		if err := s.CommitTentative(0, tr, time.Duration(i)); err != nil {
			b.Fatal(err)
		}
	}
}
