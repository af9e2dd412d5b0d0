// Package workload supplies synthetic process images for the checkpoint
// payload plane (the traffic generators live in internal/simrt). Each
// process owns an evolving memory image; every checkpoint snapshots the
// image after one mutation step, so the chunk store sees exactly the
// page-dirtying behaviour the profile models:
//
//   - uniform: every step dirties a fixed fraction of pages chosen
//     uniformly — the worst realistic case for incremental
//     checkpointing (changes spread everywhere).
//   - skewed: the classic dirty-page skew — most writes land in a small
//     hot set of pages, so successive checkpoints share almost all
//     content and incremental storage wins big.
//   - append: a log-structured process — the image grows at the tail
//     and the prefix never changes (the stdchk observation that
//     checkpoint images are highly similar over time).
//
// Everything is driven by xrand streams derived from (seed, pid), so
// images are deterministic across runs and independent across
// processes — a process's image evolves identically no matter how the
// other processes' events interleave with its own.
package workload

import (
	"fmt"

	"mutablecp/internal/protocol"
	"mutablecp/internal/xrand"
)

// ImageProfile selects how process images mutate between checkpoints.
type ImageProfile int

// Image mutation profiles.
const (
	ProfileUniform ImageProfile = iota
	ProfileSkewed
	ProfileAppend
)

// String names the profile.
func (p ImageProfile) String() string {
	switch p {
	case ProfileUniform:
		return "uniform"
	case ProfileSkewed:
		return "skewed"
	case ProfileAppend:
		return "append"
	default:
		return "profile?"
	}
}

// ParseImageProfile parses a profile name as used by CLI flags.
func ParseImageProfile(s string) (ImageProfile, error) {
	switch s {
	case "uniform", "":
		return ProfileUniform, nil
	case "skewed":
		return ProfileSkewed, nil
	case "append":
		return ProfileAppend, nil
	default:
		return 0, fmt.Errorf("workload: unknown image profile %q (want uniform, skewed, or append)", s)
	}
}

// ImagesConfig configures an image source.
type ImagesConfig struct {
	// Procs is the number of processes.
	Procs int
	// Bytes is the initial image size per process (default 512 KiB, the
	// paper's checkpoint size).
	Bytes int
	// PageBytes is the dirtying granularity (default 4 KiB). Align it
	// with the chunk store's chunk size to make dedup accounting exact.
	PageBytes int
	// DirtyFraction is the fraction of pages dirtied per step (default
	// 0.10). The skewed profile concentrates 90% of those writes in the
	// hot set; the append profile instead grows the image by
	// DirtyFraction of its initial size per step.
	DirtyFraction float64
	// HotFraction is the size of the skewed profile's hot set as a
	// fraction of the image (default 0.10).
	HotFraction float64
	// Profile selects the mutation behaviour.
	Profile ImageProfile
	// Seed drives the per-process random streams.
	Seed uint64
}

func (c ImagesConfig) defaults() ImagesConfig {
	if c.Bytes <= 0 {
		c.Bytes = 512 << 10
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 4 << 10
	}
	if c.DirtyFraction <= 0 {
		c.DirtyFraction = 0.10
	}
	if c.HotFraction <= 0 {
		c.HotFraction = 0.10
	}
	return c
}

// Images is a deterministic per-process image source. The simulator
// drives it from its single event loop, so no locking is needed.
type Images struct {
	cfg  ImagesConfig
	imgs [][]byte
	rngs []*xrand.Stream
}

// NewImages builds the source: every process starts with a distinct
// random image of cfg.Bytes.
func NewImages(cfg ImagesConfig) *Images {
	cfg = cfg.defaults()
	if cfg.Procs <= 0 {
		panic("workload: ImagesConfig.Procs must be positive")
	}
	im := &Images{
		cfg:  cfg,
		imgs: make([][]byte, cfg.Procs),
		rngs: make([]*xrand.Stream, cfg.Procs),
	}
	root := xrand.New(cfg.Seed)
	for p := 0; p < cfg.Procs; p++ {
		im.rngs[p] = root.Derive(0x1A6E0000 + uint64(p))
		im.imgs[p] = randBytes(im.rngs[p], cfg.Bytes)
	}
	return im
}

// Restore overwrites process pid's live image with a materialized
// checkpoint payload: the recovery path resumes from exactly the
// restored bytes, and later mutation steps diverge from there. It has
// the signature simrt.Config.RestoreImage expects.
func (im *Images) Restore(pid protocol.ProcessID, img []byte) {
	im.imgs[int(pid)] = append([]byte(nil), img...)
}

// randBytes fills n bytes from the stream, 8 at a time.
func randBytes(rng *xrand.Stream, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// Image advances process pid's image one mutation step and returns a
// snapshot copy — the bytes a checkpoint taken now would transfer. It
// has the signature simrt.Config.Images expects.
func (im *Images) Image(pid protocol.ProcessID) []byte {
	p := int(pid)
	img, rng := im.imgs[p], im.rngs[p]
	pages := (len(img) + im.cfg.PageBytes - 1) / im.cfg.PageBytes
	dirty := int(float64(pages)*im.cfg.DirtyFraction + 0.5)
	if dirty < 1 {
		dirty = 1
	}
	switch im.cfg.Profile {
	case ProfileAppend:
		grow := int(float64(im.cfg.Bytes)*im.cfg.DirtyFraction + 0.5)
		if grow < 1 {
			grow = 1
		}
		img = append(img, randBytes(rng, grow)...)
	case ProfileSkewed:
		hot := int(float64(pages)*im.cfg.HotFraction + 0.5)
		if hot < 1 {
			hot = 1
		}
		for i := 0; i < dirty; i++ {
			var page int
			if rng.Float64() < 0.9 {
				page = rng.Intn(hot) // 90% of writes land in the hot set
			} else {
				page = rng.Intn(pages)
			}
			im.dirtyPage(img, rng, page)
		}
	default: // ProfileUniform
		for i := 0; i < dirty; i++ {
			im.dirtyPage(img, rng, rng.Intn(pages))
		}
	}
	im.imgs[p] = img
	return append([]byte(nil), img...)
}

// dirtyPage overwrites the first 8 bytes of one page — enough to change
// the page's (and its chunk's) content hash, cheap enough to step
// large images every checkpoint.
func (im *Images) dirtyPage(img []byte, rng *xrand.Stream, page int) {
	off := page * im.cfg.PageBytes
	end := off + 8
	if end > len(img) {
		end = len(img)
	}
	v := rng.Uint64() | 1 // never a no-op write
	for j := off; j < end; j++ {
		img[j] = byte(v >> (8 * (j - off)))
	}
}

// Bytes reports the current image size of process pid.
func (im *Images) Bytes(pid protocol.ProcessID) int { return len(im.imgs[pid]) }
