package seglog

// The filesystem seam. The log performs a deliberately narrow set of
// operations — append, fsync, directory listing, truncate (torn-tail
// recovery), remove (compaction GC), and directory fsync (name
// durability) — so the whole disk surface can be swapped for the
// fault-injecting in-memory implementation in stable/errfs. Notably
// absent: rename. The log never needs atomic replacement because the
// commit point is always a record inside a segment, and a half-written
// compaction segment is recovered by the same torn-tail rule as any
// other segment.

import (
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Reader is a segment opened for reading: replay reads it front to
// back, ReadAt reads one frame at its offset.
type Reader interface {
	io.Reader
	io.ReaderAt
	io.Closer
}

// File is an append-only segment handle.
type File interface {
	io.Writer
	// Sync flushes written bytes to durable media. A Sync error poisons
	// the log: per the fsync contract there is no way to know what made
	// it to disk, so the only safe reaction is to stop writing and
	// recover by reopening.
	Sync() error
	Close() error
}

// FS is the filesystem the log runs on. Implementations: osFS (the
// real disk) and errfs.MemFS (simulated disk with fault injection).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir lists the names (not paths) of the files in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Open opens an existing file for reading.
	Open(name string) (Reader, error)
	// Create creates a new file for appending; the file must not exist.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for further appends.
	OpenAppend(name string) (File, error)
	// Truncate cuts the file to size bytes (torn-tail recovery).
	Truncate(name string, size int64) error
	// Remove deletes a file (compaction garbage collection).
	Remove(name string) error
	// SyncDir flushes dir's entries so created/removed names survive a
	// crash.
	SyncDir(dir string) error
}

// OS returns the real-disk filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Open(name string) (Reader, error) { return os.Open(name) }

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	// Directory fsync persists the name->file mapping (POSIX leaves entry
	// durability to the directory, not the file).
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
