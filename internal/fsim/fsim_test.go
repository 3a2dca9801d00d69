package fsim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"vread/internal/data"
)

// readAt returns the byte window [off, off+n) of the file at path.
func readAt(fs *FS, path string, off, n int64) (data.Slice, error) {
	node, err := fs.Stat(path)
	if err != nil {
		return data.Slice{}, err
	}
	return ReadNode(node, off, n)
}

func newHadoopFS(t *testing.T) *FS {
	t.Helper()
	fs := New()
	if err := fs.MkdirAll("/hadoop/dfs/data"); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateWriteRead(t *testing.T) {
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/dfs/data/blk_1", data.Bytes("hello block")); err != nil {
		t.Fatal(err)
	}
	s, err := readAt(fs, "/hadoop/dfs/data/blk_1", 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(s.Bytes()); got != "block" {
		t.Fatalf("read = %q", got)
	}
	node, err := fs.Stat("/hadoop/dfs/data/blk_1")
	if err != nil {
		t.Fatal(err)
	}
	if node.Size() != 11 || node.isDir {
		t.Fatalf("stat = size %d isDir %v", node.Size(), node.isDir)
	}
}

func TestAppendAccumulates(t *testing.T) {
	fs := newHadoopFS(t)
	node, err := fs.Create("/hadoop/dfs/data/blk_2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := AppendNode(node, data.NewSlice(data.Bytes(fmt.Sprintf("part%d|", i)))); err != nil {
			t.Fatal(err)
		}
	}
	s, err := readAt(fs, "/hadoop/dfs/data/blk_2", 0, 18)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(s.Bytes()); got != "part0|part1|part2|" {
		t.Fatalf("read = %q", got)
	}
}

func TestErrors(t *testing.T) {
	fs := newHadoopFS(t)
	if _, err := readAt(fs, "/nope", 0, 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing file error = %v", err)
	}
	if _, err := fs.Create("/no/parents/here"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing parent error = %v", err)
	}
	if err := fs.WriteFile("/hadoop", data.Bytes("x")); !errors.Is(err, ErrIsDir) {
		t.Fatalf("write to dir error = %v", err)
	}
	if err := fs.WriteFile("/hadoop/dfs/data/f", data.Bytes("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/hadoop/dfs/data/f"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create error = %v", err)
	}
	if _, err := readAt(fs, "/hadoop/dfs/data/f", 2, 5); !errors.Is(err, ErrRange) {
		t.Fatalf("range error = %v", err)
	}
	if _, err := fs.Create("/hadoop/dfs/data/f/g"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("create under a file error = %v", err)
	}
	if err := fs.Remove("/hadoop"); err == nil {
		t.Fatal("removing non-empty dir succeeded")
	}
}

func TestRemove(t *testing.T) {
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/dfs/data/blk_tmp", data.Bytes("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/hadoop/dfs/data/blk_tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/hadoop/dfs/data/blk_tmp"); !errors.Is(err, ErrNotExist) {
		t.Fatal("file still exists after remove")
	}
}

// TestListSorted: Walk lists a directory's files in sorted order.
func TestListSorted(t *testing.T) {
	fs := newHadoopFS(t)
	for _, name := range []string{"blk_9", "blk_1", "blk_5"} {
		if err := fs.WriteFile("/hadoop/dfs/data/"+name, data.Bytes("x")); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fs.Walk(func(path string, _ *Inode) { names = append(names, path) })
	if got := strings.Join(names, " "); got != "/hadoop/dfs/data/blk_1 /hadoop/dfs/data/blk_5 /hadoop/dfs/data/blk_9" {
		t.Fatalf("Walk = %s", got)
	}
}

func TestMountSnapshotStaleness(t *testing.T) {
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/dfs/data/blk_old", data.Bytes("old-block")); err != nil {
		t.Fatal(err)
	}
	m := MountRO(fs)

	// Pre-mount file is readable through the mount.
	s, err := m.ReadAt("/hadoop/dfs/data/blk_old", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()) != "old-block" {
		t.Fatalf("mount read = %q", s.Bytes())
	}

	// A file created after the mount is invisible (stale dentry cache).
	if err := fs.WriteFile("/hadoop/dfs/data/blk_new", data.Bytes("new-block")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt("/hadoop/dfs/data/blk_new", 0, 9); !errors.Is(err, ErrStale) {
		t.Fatalf("stale read error = %v", err)
	}

	// RefreshPath makes exactly that file visible.
	if !m.RefreshPath("/hadoop/dfs/data/blk_new") {
		t.Fatal("RefreshPath reported missing file")
	}
	s, err = m.ReadAt("/hadoop/dfs/data/blk_new", 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()) != "block" {
		t.Fatalf("post-refresh read = %q", s.Bytes())
	}
}

func TestMountSnapshotSizeBound(t *testing.T) {
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/dfs/data/blk", data.Bytes("12345")); err != nil {
		t.Fatal(err)
	}
	m := MountRO(fs)
	// Guest appends after the mount; the mount still sees the old size.
	node, err := fs.Stat("/hadoop/dfs/data/blk")
	if err != nil {
		t.Fatal(err)
	}
	if err := AppendNode(node, data.NewSlice(data.Bytes("6789"))); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt("/hadoop/dfs/data/blk", 0, 9); !errors.Is(err, ErrRange) {
		t.Fatalf("read past snapshot size error = %v", err)
	}
	s, err := m.ReadAt("/hadoop/dfs/data/blk", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()) != "12345" {
		t.Fatalf("snapshot read = %q", s.Bytes())
	}
	// After refresh the appended bytes are visible.
	m.RefreshPath("/hadoop/dfs/data/blk")
	s, err = m.ReadAt("/hadoop/dfs/data/blk", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()) != "6789" {
		t.Fatalf("post-refresh append read = %q", s.Bytes())
	}
}

func TestMountSurvivesGuestDelete(t *testing.T) {
	// Like an open dentry reference in Linux: a file the guest deletes
	// remains readable through the stale mount until refresh.
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/dfs/data/blk", data.Bytes("ghost")); err != nil {
		t.Fatal(err)
	}
	m := MountRO(fs)
	if err := fs.Remove("/hadoop/dfs/data/blk"); err != nil {
		t.Fatal(err)
	}
	s, err := m.ReadAt("/hadoop/dfs/data/blk", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(s.Bytes()) != "ghost" {
		t.Fatalf("ghost read = %q", s.Bytes())
	}
	if m.RefreshPath("/hadoop/dfs/data/blk") {
		t.Fatal("RefreshPath found deleted file")
	}
	if _, err := m.ReadAt("/hadoop/dfs/data/blk", 0, 5); !errors.Is(err, ErrStale) {
		t.Fatalf("post-refresh ghost read error = %v", err)
	}
}

func TestMountRefreshAll(t *testing.T) {
	fs := newHadoopFS(t)
	m := MountRO(fs)
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/hadoop/dfs/data/blk_%d", i)
		if err := fs.WriteFile(path, data.Bytes("x")); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.dentries) != 0 {
		t.Fatalf("Entries = %d before refresh", len(m.dentries))
	}
	m.RefreshAll()
	if len(m.dentries) != 5 {
		t.Fatalf("Entries = %d after RefreshAll", len(m.dentries))
	}
	if _, ok := m.Lookup("/hadoop/dfs/data/blk_3"); !ok {
		t.Fatal("Lookup failed after RefreshAll")
	}
}

// TestLookupZeroAlloc: a lookup that hits walks the path in place, and the
// mount's dentry lookup keeps an already canonical path as is, so neither
// allocates. Redundant slashes still resolve.
func TestLookupZeroAlloc(t *testing.T) {
	fs := newHadoopFS(t)
	const path = "/hadoop/dfs/data/blk_1"
	if err := fs.WriteFile(path, data.Bytes("x")); err != nil {
		t.Fatal(err)
	}
	m := MountRO(fs)
	for _, p := range []string{path, "hadoop//dfs/data/blk_1/"} {
		if _, err := fs.Stat(p); err != nil {
			t.Fatalf("Stat(%q): %v", p, err)
		}
		if _, ok := m.Lookup(p); !ok {
			t.Fatalf("mount Lookup(%q) missed", p)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = fs.Stat(path) }); n != 0 {
		t.Errorf("Stat hit: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = m.Lookup(path) }); n != 0 {
		t.Errorf("mount Lookup hit: %v allocs/op, want 0", n)
	}
}

func TestLookupErrorText(t *testing.T) {
	fs := newHadoopFS(t)
	if err := fs.WriteFile("/hadoop/f", data.Bytes("x")); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/hadoop/nope":   "fsim: no such file or directory: /hadoop/nope",
		"/hadoop/f/x":    "fsim: not a directory: /hadoop/f/x",
		"//hadoop//nope": "fsim: no such file or directory: //hadoop//nope",
	} {
		if _, err := fs.Stat(path); err == nil || err.Error() != want {
			t.Errorf("Stat(%q) = %v, want %q", path, err, want)
		}
	}
}

func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"":       "/",
		"/":      "/",
		"//":     "/",
		"/a/b":   "/a/b",
		"a/b":    "/a/b",
		"/a//b/": "/a/b",
		"/a/b/":  "/a/b",
		"///a":   "/a",
		"/a/b/c": "/a/b/c",
		"a":      "/a",
		"/a/./b": "/a/./b",
	} {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: for any set of files with pattern content, every file read back
// through both the live FS and a fresh mount matches the written bytes.
func TestRoundTripProperty(t *testing.T) {
	f := func(sizes []uint16, seed uint64) bool {
		fs := New()
		if err := fs.MkdirAll("/d"); err != nil {
			return false
		}
		type file struct {
			path    string
			content data.Pattern
		}
		var files []file
		for i, sz := range sizes {
			if i >= 8 {
				break
			}
			c := data.Pattern{Seed: seed + uint64(i), Size: int64(sz) + 1}
			path := fmt.Sprintf("/d/f%d", i)
			if err := fs.WriteFile(path, c); err != nil {
				return false
			}
			files = append(files, file{path, c})
		}
		m := MountRO(fs)
		for _, fl := range files {
			live, err := readAt(fs, fl.path, 0, fl.content.Size)
			if err != nil {
				return false
			}
			mnt, err := m.ReadAt(fl.path, 0, fl.content.Size)
			if err != nil {
				return false
			}
			want := data.NewSlice(fl.content)
			if !data.Equal(live, want) || !data.Equal(mnt, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
