package errfs_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"mutablecp/internal/stable/errfs"
)

func readAll(t *testing.T, fs *errfs.MemFS, name string) []byte {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCrashLosesUnsyncedBytes(t *testing.T) {
	fs := errfs.New()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("+volatile")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, "d/a"); string(got) != "durable+volatile" {
		t.Fatalf("live content = %q", got)
	}

	fs.SetHook(func(op errfs.Op, path string) errfs.Fault { return errfs.FaultCrash })
	if err := f.Sync(); !errors.Is(err, errfs.ErrCrashed) {
		t.Fatalf("sync after crash injection: %v", err)
	}
	fs.SetHook(nil)
	if !fs.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := fs.Open("d/a"); !errors.Is(err, errfs.ErrCrashed) {
		t.Fatalf("op while crashed: %v", err)
	}
	fs.Recover()
	if got := readAll(t, fs, "d/a"); string(got) != "durable" {
		t.Fatalf("post-crash content = %q, want synced prefix only", got)
	}
}

func TestCrashForgetsUnsyncedNames(t *testing.T) {
	fs := errfs.New()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	a, _ := fs.Create("d/synced")
	a.Write([]byte("x"))
	a.Sync()
	if err := fs.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	fs.Create("d/volatile") // never dir-synced
	if err := fs.Remove("d/synced"); err != nil {
		t.Fatal(err) // removal also never dir-synced
	}

	fs.SetHook(func(errfs.Op, string) errfs.Fault { return errfs.FaultCrash })
	fs.MkdirAll("x") // any op triggers the crash
	fs.SetHook(nil)
	fs.Recover()

	names, err := fs.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "synced" {
		t.Fatalf("post-crash names = %v: un-fsynced create must vanish, un-fsynced remove must undo", names)
	}
}

func TestTornWrite(t *testing.T) {
	fs := errfs.New()
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	f.Write([]byte("base"))
	f.Sync()
	fs.SyncDir("d")

	fs.SetHook(func(op errfs.Op, path string) errfs.Fault {
		if op == errfs.OpWrite {
			return errfs.FaultTornCrash
		}
		return errfs.FaultNone
	})
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, errfs.ErrCrashed) || n != 4 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	fs.SetHook(nil)
	fs.Recover()
	// The torn half was never synced, so it is gone with the crash.
	if got := readAll(t, fs, "d/a"); string(got) != "base" {
		t.Fatalf("post-crash content = %q", got)
	}
}

func TestShortWriteKeepsPrefixLive(t *testing.T) {
	fs := errfs.New()
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	fs.SetHook(func(op errfs.Op, path string) errfs.Fault {
		if op == errfs.OpWrite {
			return errfs.FaultShortWrite
		}
		return errfs.FaultNone
	})
	n, err := f.Write([]byte("12345678"))
	if !errors.Is(err, errfs.ErrInjected) || n != 4 {
		t.Fatalf("short write: n=%d err=%v", n, err)
	}
	fs.SetHook(nil)
	// No crash: the prefix is visible live (the disk has it, just not all
	// of what the caller asked for).
	if got := readAll(t, fs, "d/a"); string(got) != "1234" {
		t.Fatalf("live content = %q", got)
	}
}

func TestOpsCountAndSnapshotDeterminism(t *testing.T) {
	build := func() *errfs.MemFS {
		fs := errfs.New()
		fs.MkdirAll("d")
		f, _ := fs.Create("d/a")
		f.Write([]byte("hello"))
		f.Sync()
		f.Close()
		fs.SyncDir("d")
		return fs
	}
	a, b := build(), build()
	if a.Ops() != b.Ops() || a.Ops() == 0 {
		t.Fatalf("ops: %d vs %d", a.Ops(), b.Ops())
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("identical op sequences produced different disk images")
	}
}

func TestCorruptByte(t *testing.T) {
	fs := errfs.New()
	fs.MkdirAll("d")
	f, _ := fs.Create("d/a")
	f.Write([]byte{0xAA})
	if err := fs.CorruptByte("d/a", 0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs, "d/a"); got[0] != 0xAB {
		t.Fatalf("corrupt byte = %02x", got[0])
	}
}

// TestReadFaultLimitsPositionedReads: ReadFault's byte limit is a file
// offset, so a positioned read gets the bytes before it and then the
// fault, exactly as a sequential read does.
func TestReadFaultLimitsPositionedReads(t *testing.T) {
	fs := errfs.New()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789abcdefghij")
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	eio := errors.New("input/output error")
	r, err := errfs.ReadFault(fs, 12, eio).Open("d/a")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, err := io.ReadAll(r); !errors.Is(err, eio) || !bytes.Equal(got, data[:12]) {
		t.Fatalf("sequential read: %q, %v; want %q then the fault", got, err, data[:12])
	}
	for _, c := range []struct {
		off, len, want int
		fault          bool
	}{
		{0, 12, 12, false}, // ends at the limit
		{4, 4, 4, false},
		{8, 8, 4, true}, // crosses it
		{12, 1, 0, true},
		{15, 5, 0, true},
	} {
		p := make([]byte, c.len)
		n, err := r.ReadAt(p, int64(c.off))
		if n != c.want || !bytes.Equal(p[:n], data[c.off:c.off+n]) || errors.Is(err, eio) != c.fault || (!c.fault && err != nil) {
			t.Errorf("ReadAt(%d bytes at %d) = %d %q, %v; want %d bytes, fault %v", c.len, c.off, n, p[:n], err, c.want, c.fault)
		}
	}
}
