// Package errfs is a simulated disk for crash-testing internal/stable:
// an in-memory filesystem that models exactly the durability contract a
// real disk gives an append-only log — and nothing more. Written bytes
// live in a volatile layer until the file is fsynced; created and
// removed names live in a volatile layer until the directory is fsynced;
// a simulated power cut throws away every volatile layer at once, and
// can tear the write it interrupts in half. A hook sees every operation
// before it executes and can fail it, shorten it, or pull the power, so
// a test can crash a store at literally every I/O step it takes.
package errfs

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"mutablecp/internal/stable"
)

// Op identifies a filesystem operation for the injection hook.
type Op int

// Filesystem operations, in the order the store tends to issue them.
const (
	OpMkdirAll Op = iota + 1
	OpReadDir
	OpOpen
	OpCreate
	OpOpenAppend
	OpWrite
	OpSync
	OpClose
	OpTruncate
	OpRemove
	OpSyncDir
)

var opNames = map[Op]string{
	OpMkdirAll: "mkdirall", OpReadDir: "readdir", OpOpen: "open",
	OpCreate: "create", OpOpenAppend: "openappend", OpWrite: "write",
	OpSync: "sync", OpClose: "close", OpTruncate: "truncate",
	OpRemove: "remove", OpSyncDir: "syncdir",
}

// String returns the op name.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return "op?"
}

// Fault is the injection verdict for one operation.
type Fault int

// Faults a hook can inject.
const (
	// FaultNone lets the op through.
	FaultNone Fault = iota
	// FaultErr fails the op with ErrInjected; no state changes.
	FaultErr
	// FaultShortWrite (writes only) persists a prefix of the buffer into
	// the volatile layer, then fails with ErrInjected — a short write the
	// caller must treat as fatal.
	FaultShortWrite
	// FaultCrash pulls the power before the op: every unsynced byte and
	// every un-fsynced name change is gone. The op fails with ErrCrashed.
	FaultCrash
	// FaultTornCrash (writes only) persists a prefix of the buffer, then
	// pulls the power: models a write torn mid-sector by the cut.
	FaultTornCrash
)

// Injection errors.
var (
	ErrInjected = errors.New("errfs: injected failure")
	ErrCrashed  = errors.New("errfs: simulated power failure")
	errClosed   = errors.New("errfs: file handle closed")
)

// memFile is one file: data is the live content, synced the number of
// bytes guaranteed to be on media.
type memFile struct {
	data   []byte
	synced int
}

// MemFS is the simulated disk. It implements stable.FS.
type MemFS struct {
	mu   sync.Mutex
	hook func(op Op, path string) Fault

	files map[string]*memFile // live namespace
	dirs  map[string]bool
	// durable is the namespace as the media knows it: updated only by
	// SyncDir, restored by Crash. File objects are shared with files;
	// content durability is tracked per file by synced.
	durable map[string]*memFile

	crashed bool
	ops     uint64
}

var _ stable.FS = (*MemFS)(nil)

// New returns an empty simulated disk.
func New() *MemFS {
	return &MemFS{
		files:   make(map[string]*memFile),
		dirs:    make(map[string]bool),
		durable: make(map[string]*memFile),
	}
}

// SetHook installs the injection hook (nil clears it). The hook runs
// before each operation with the op and the path it targets.
func (m *MemFS) SetHook(hook func(op Op, path string) Fault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hook = hook
}

// Ops reports how many operations reached the disk (including failed
// and crashed ones) — the gauntlet uses it to enumerate crash points.
func (m *MemFS) Ops() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Crashed reports whether the disk is in the post-power-cut state.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// crashLocked applies the power cut: the live namespace reverts to the
// durable one and every file loses its unsynced suffix.
func (m *MemFS) crashLocked() {
	m.crashed = true
	m.files = make(map[string]*memFile, len(m.durable))
	for name, f := range m.durable {
		f.data = f.data[:f.synced]
		m.files[name] = f
	}
}

// Recover ends the post-crash state: the disk comes back holding only
// what was durable, ready to be reopened.
func (m *MemFS) Recover() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.crashed {
		return
	}
	m.crashed = false
}

// check runs the hook and the crashed gate for one op. It returns the
// fault to apply (FaultNone, FaultShortWrite, FaultTornCrash) or an
// error that already settles the op.
func (m *MemFS) check(op Op, path string) (Fault, error) {
	if m.crashed {
		return FaultNone, fmt.Errorf("%w (op %v on %s after crash)", ErrCrashed, op, path)
	}
	m.ops++
	if m.hook == nil {
		return FaultNone, nil
	}
	switch f := m.hook(op, path); f {
	case FaultNone:
		return FaultNone, nil
	case FaultErr:
		return FaultNone, fmt.Errorf("%w (%v %s)", ErrInjected, op, path)
	case FaultCrash:
		m.crashLocked()
		return FaultNone, fmt.Errorf("%w (%v %s)", ErrCrashed, op, path)
	case FaultShortWrite, FaultTornCrash:
		if op != OpWrite {
			return FaultNone, fmt.Errorf("%w (%v %s)", ErrInjected, op, path)
		}
		return f, nil
	default:
		return FaultNone, fmt.Errorf("errfs: unknown fault %d", f)
	}
}

// --- stable.FS implementation ---

// MkdirAll implements stable.FS. Directories are modelled as durable on
// creation; the hazards under test all live in file data and names.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpMkdirAll, dir); err != nil {
		return err
	}
	for d := filepath.Clean(dir); d != "." && d != "/"; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// ReadDir implements stable.FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpReadDir, dir); err != nil {
		return nil, err
	}
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, fmt.Errorf("errfs: readdir %s: no such directory", dir)
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Open implements stable.FS: reads see the live content at open time.
func (m *MemFS) Open(name string) (stable.Reader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpOpen, name); err != nil {
		return nil, err
	}
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("errfs: open %s: no such file", name)
	}
	return readHandle{bytes.NewReader(append([]byte(nil), f.data...))}, nil
}

// readHandle is a read handle on a copy of one file's content.
type readHandle struct{ *bytes.Reader }

func (readHandle) Close() error { return nil }

// Create implements stable.FS. The new name is volatile until its
// directory is fsynced.
func (m *MemFS) Create(name string) (stable.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpCreate, name); err != nil {
		return nil, err
	}
	if _, ok := m.files[name]; ok {
		return nil, fmt.Errorf("errfs: create %s: file exists", name)
	}
	if !m.dirs[filepath.Dir(name)] {
		return nil, fmt.Errorf("errfs: create %s: no such directory", filepath.Dir(name))
	}
	m.files[name] = &memFile{}
	return &handle{fs: m, name: name}, nil
}

// OpenAppend implements stable.FS.
func (m *MemFS) OpenAppend(name string) (stable.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpOpenAppend, name); err != nil {
		return nil, err
	}
	if _, ok := m.files[name]; !ok {
		return nil, fmt.Errorf("errfs: openappend %s: no such file", name)
	}
	return &handle{fs: m, name: name}, nil
}

// Truncate implements stable.FS. A truncate below the synced watermark
// moves the watermark down with it.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpTruncate, name); err != nil {
		return err
	}
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("errfs: truncate %s: no such file", name)
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("errfs: truncate %s to %d (size %d)", name, size, len(f.data))
	}
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// Remove implements stable.FS. The removal is volatile until the
// directory is fsynced.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpRemove, name); err != nil {
		return err
	}
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("errfs: remove %s: no such file", name)
	}
	delete(m.files, name)
	return nil
}

// SyncDir implements stable.FS: the durable namespace for dir catches up
// with the live one (creations appear, removals disappear).
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.check(OpSyncDir, dir); err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return fmt.Errorf("errfs: syncdir %s: no such directory", dir)
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, live := m.files[name]; !live {
				delete(m.durable, name)
			}
		}
	}
	for name, f := range m.files {
		if filepath.Dir(name) == dir {
			m.durable[name] = f
		}
	}
	return nil
}

// handle is an append handle on one file.
type handle struct {
	fs     *MemFS
	name   string
	closed bool
}

// Write implements stable.File. Under FaultShortWrite/FaultTornCrash
// only a prefix lands in the volatile layer, modelling a write the power
// cut (or the disk) tore in half.
func (h *handle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, errClosed
	}
	fault, err := h.fs.check(OpWrite, h.name)
	if err != nil {
		return 0, err
	}
	f, ok := h.fs.files[h.name]
	if !ok {
		return 0, fmt.Errorf("errfs: write %s: no such file", h.name)
	}
	switch fault {
	case FaultShortWrite:
		n := len(p) / 2
		f.data = append(f.data, p[:n]...)
		return n, fmt.Errorf("%w (short write %d of %d bytes to %s)", ErrInjected, n, len(p), h.name)
	case FaultTornCrash:
		n := len(p) / 2
		f.data = append(f.data, p[:n]...)
		h.fs.crashLocked()
		return n, fmt.Errorf("%w (write to %s torn at %d of %d bytes)", ErrCrashed, h.name, n, len(p))
	default:
		f.data = append(f.data, p...)
		return len(p), nil
	}
}

// Sync implements stable.File: the file's volatile bytes become durable.
func (h *handle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errClosed
	}
	if _, err := h.fs.check(OpSync, h.name); err != nil {
		return err
	}
	f, ok := h.fs.files[h.name]
	if !ok {
		return fmt.Errorf("errfs: sync %s: no such file", h.name)
	}
	f.synced = len(f.data)
	return nil
}

// Close implements stable.File.
func (h *handle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return errClosed
	}
	h.closed = true
	if _, err := h.fs.check(OpClose, h.name); err != nil {
		return err
	}
	return nil
}

// FileData returns the live content of a file (test inspection).
func (m *MemFS) FileData(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// CorruptByte flips one bit of a file's live AND durable content at the
// given offset (test helper for silent media corruption).
func (m *MemFS) CorruptByte(name string, off int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return fmt.Errorf("errfs: corrupt %s: no such file", name)
	}
	if off < 0 || off >= len(f.data) {
		return fmt.Errorf("errfs: corrupt %s at %d (size %d)", name, off, len(f.data))
	}
	f.data[off] ^= 1
	return nil
}

// Snapshot returns a deterministic fingerprint of the live filesystem
// image: every file name, size, and content. Two runs with identical
// seeds and fault schedules must produce identical snapshots.
func (m *MemFS) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for name := range m.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		fmt.Fprintf(&buf, "%s %d\n", name, len(m.files[name].data))
		buf.Write(m.files[name].data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// ReadFault wraps fs so that every file opened for reading delivers its
// first after bytes and then fails with err: a disk that starts
// returning EIO mid-file, which no hook on whole operations can model.
// A positioned read gets the bytes before offset after and then err.
// Everything else passes through to fs.
func ReadFault(fs stable.FS, after int64, err error) stable.FS {
	return readFaultFS{FS: fs, after: after, err: err}
}

type readFaultFS struct {
	stable.FS
	after int64
	err   error
}

func (f readFaultFS) Open(name string) (stable.Reader, error) {
	r, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultReader{Reader: r, after: f.after, left: f.after, err: f.err}, nil
}

type faultReader struct {
	stable.Reader
	after int64 // the first offset that fails
	left  int64 // bytes Read may still deliver
	err   error
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	if off >= r.after {
		return 0, r.err
	}
	if int64(len(p)) > r.after-off {
		n, err := r.Reader.ReadAt(p[:r.after-off], off)
		if err == nil {
			err = r.err
		}
		return n, err
	}
	return r.Reader.ReadAt(p, off)
}

func (r *faultReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, r.err
	}
	if int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.Reader.Read(p)
	r.left -= int64(n)
	return n, err
}
