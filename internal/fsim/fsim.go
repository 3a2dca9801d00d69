// Package fsim implements the file system that lives inside a datanode VM's
// disk image, plus the host-side read-only mount that the vRead daemon uses
// to reach it.
//
// The FS is a plain hierarchical inode store (directories, append-only file
// chunks) with no notion of time — the guest kernel and virtio layers charge
// cycles and device I/O around it. What it does model carefully is the
// paper's consistency mechanism: a HostMount takes a *snapshot* of the
// dentry/inode state at mount time (the hypervisor's mount of the image as a
// loop device), so files the guest creates afterwards are invisible to the
// host until Refresh — exactly the staleness that vRead_update exists to fix
// (§3.2, §4 of the paper).
package fsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vread/internal/data"
)

// Errors returned by FS and HostMount operations.
var (
	ErrNotExist = errors.New("fsim: no such file or directory")
	ErrExist    = errors.New("fsim: file exists")
	ErrIsDir    = errors.New("fsim: is a directory")
	ErrNotDir   = errors.New("fsim: not a directory")
	ErrRange    = errors.New("fsim: read out of range")
	ErrStale    = errors.New("fsim: stale mount (file not in dentry cache)")
)

// Ino is an inode number, unique within one FS.
type Ino int64

// Inode is a file or directory. Files accumulate immutable content chunks
// (append-only, matching HDFS block files); directories map names to inodes.
type Inode struct {
	ino    Ino
	isDir  bool
	path   string // the path it was created under, for error text
	chunks data.Concat
	// content is chunks boxed by the first read after a change, so neither
	// an append nor a repeated read converts chunks to an interface.
	content data.Content
	size    int64
	entries map[string]*Inode
}

// setChunks replaces the file's chunks and size.
func (n *Inode) setChunks(chunks data.Concat, size int64) {
	n.chunks, n.content, n.size = chunks, nil, size
}

// Ino returns the inode number.
func (n *Inode) Ino() Ino { return n.ino }

// Size returns the file size in bytes (0 for directories).
func (n *Inode) Size() int64 { return n.size }

// FS is one file system instance.
type FS struct {
	nextIno Ino
	root    *Inode
}

// New creates an empty file system.
func New() *FS {
	fs := &FS{nextIno: 1}
	fs.root = &Inode{ino: 1, isDir: true, path: "/", entries: make(map[string]*Inode)}
	return fs
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" {
			parts = append(parts, p)
		}
	}
	return parts
}

// Stat resolves a path to its inode. It walks the components in place, so
// a lookup that hits allocates nothing.
func (fs *FS) Stat(path string) (*Inode, error) {
	cur := fs.root
	for rest := path; rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, "/")
		if part == "" {
			continue
		}
		if !cur.isDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		next, ok := cur.entries[part]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		cur = next
	}
	return cur, nil
}

// lookupParent resolves the directory containing path and the final name.
func (fs *FS) lookupParent(path string) (*Inode, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("%w: cannot use root here", ErrIsDir)
	}
	dirParts, name := parts[:len(parts)-1], parts[len(parts)-1]
	cur := fs.root
	for _, part := range dirParts {
		next, ok := cur.entries[part]
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		if !next.isDir {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		cur = next
	}
	return cur, name, nil
}

// MkdirAll creates the directory path and all parents.
func (fs *FS) MkdirAll(path string) error {
	cur := fs.root
	for _, part := range splitPath(path) {
		next, ok := cur.entries[part]
		if !ok {
			fs.nextIno++
			dir := strings.TrimSuffix(cur.path, "/") + "/" + part
			next = &Inode{ino: fs.nextIno, isDir: true, path: dir, entries: make(map[string]*Inode)}
			cur.entries[part] = next
		} else if !next.isDir {
			return fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		cur = next
	}
	return nil
}

// Create makes an empty file. Parents must exist; the file must not.
func (fs *FS) Create(path string) (*Inode, error) {
	dir, name, err := fs.lookupParent(path)
	if err != nil {
		return nil, err
	}
	if _, ok := dir.entries[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, path)
	}
	fs.nextIno++
	node := &Inode{ino: fs.nextIno, path: path}
	node.setChunks(nil, 0)
	dir.entries[name] = node
	return node, nil
}

// AppendNode adds a window of content to the end of a file inode, so a
// caller holding one walks no path.
func AppendNode(node *Inode, s data.Slice) error {
	if node.isDir {
		return fmt.Errorf("%w: %s", ErrIsDir, node.path)
	}
	node.setChunks(append(node.chunks, s), node.size+s.Len())
	return nil
}

// WriteFile creates (or replaces) a file with the given content.
func (fs *FS) WriteFile(path string, c data.Content) error {
	if node, err := fs.Stat(path); err == nil {
		if node.isDir {
			return fmt.Errorf("%w: %s", ErrIsDir, path)
		}
		node.setChunks(data.Concat{data.NewSlice(c)}, c.Len())
		return nil
	}
	node, err := fs.Create(path)
	if err != nil {
		return err
	}
	node.setChunks(data.Concat{data.NewSlice(c)}, c.Len())
	return nil
}

// ReadNode returns the byte window [off, off+n) of a file inode, so a
// caller holding one walks no path.
func ReadNode(node *Inode, off, n int64) (data.Slice, error) {
	return readInode(node, off, n, node.size, node.path)
}

func readInode(node *Inode, off, n, limit int64, path string) (data.Slice, error) {
	if node.isDir {
		return data.Slice{}, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	if off < 0 || n < 0 || off+n > limit {
		return data.Slice{}, fmt.Errorf("%w: [%d,%d) of %d in %s", ErrRange, off, off+n, limit, path)
	}
	if node.content == nil {
		node.content = node.chunks
	}
	return data.Slice{C: node.content, Off: off, N: n}, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(path string) error {
	dir, name, err := fs.lookupParent(path)
	if err != nil {
		return err
	}
	node, ok := dir.entries[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	if node.isDir && len(node.entries) > 0 {
		return fmt.Errorf("fsim: directory not empty: %s", path)
	}
	delete(dir.entries, name)
	return nil
}

// Walk visits every regular file (sorted, depth-first) with its full path.
func (fs *FS) Walk(fn func(path string, node *Inode)) {
	fs.walkDir("", fs.root, fn)
}

func (fs *FS) walkDir(prefix string, dir *Inode, fn func(string, *Inode)) {
	names := make([]string, 0, len(dir.entries))
	for name := range dir.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		node := dir.entries[name]
		path := prefix + "/" + name
		if node.isDir {
			fs.walkDir(path, node, fn)
		} else {
			fn(path, node)
		}
	}
}

// ---------------------------------------------------------------------------
// Host-side read-only mount with a snapshot dentry/inode cache.

// MountEntry is one cached dentry: the inode pointer plus the file size at
// snapshot time. Reads through the mount are bounded by the snapshot size
// even if the guest appended since (the hypervisor's cached metadata).
type MountEntry struct {
	Node *Inode
	Size int64
}

// HostMount is the hypervisor's read-only view of a guest FS, as produced by
// losetup/kpartx plus a read-only mount in the paper's prototype.
type HostMount struct {
	fs       *FS
	dentries map[string]MountEntry
}

// MountRO snapshots the FS's current files into a new mount.
func MountRO(fs *FS) *HostMount {
	m := &HostMount{fs: fs, dentries: make(map[string]MountEntry)}
	m.RefreshAll()
	return m
}

// Lookup consults only the dentry cache (never the live FS).
func (m *HostMount) Lookup(path string) (MountEntry, bool) {
	e, ok := m.dentries[canonical(path)]
	return e, ok
}

// ReadAt reads [off, off+n) of path through the dentry cache. A file created
// after the snapshot returns ErrStale; a read past the snapshot size returns
// ErrRange.
func (m *HostMount) ReadAt(path string, off, n int64) (data.Slice, error) {
	e, ok := m.dentries[canonical(path)]
	if !ok {
		return data.Slice{}, fmt.Errorf("%w: %s", ErrStale, path)
	}
	return readInode(e.Node, off, n, e.Size, path)
}

// RefreshAll re-snapshots every file (a full remount).
func (m *HostMount) RefreshAll() {
	m.dentries = make(map[string]MountEntry)
	m.fs.Walk(func(path string, node *Inode) {
		m.dentries[path] = MountEntry{Node: node, Size: node.size}
	})
}

// RefreshPath updates (or inserts) the dentry for a single path — the cheap
// per-new-block update that vRead_update performs. It reports whether the
// path exists in the live FS.
func (m *HostMount) RefreshPath(path string) bool {
	node, err := m.fs.Stat(path)
	if err != nil || node.isDir {
		delete(m.dentries, canonical(path))
		return false
	}
	m.dentries[canonical(path)] = MountEntry{Node: node, Size: node.size}
	return true
}

// Invalidate empties the dentry cache without touching the live FS — what a
// daemon crash does to the hypervisor's cached metadata. Every path is stale
// (lookups miss, reads return ErrStale) until RefreshPath / RefreshAll
// re-snapshots it, exactly the window vRead_update closes.
func (m *HostMount) Invalidate() {
	m.dentries = make(map[string]MountEntry)
}

// canonical normalizes a path to the /a/b/c form Walk produces, returning an
// already canonical path unchanged.
func canonical(path string) string {
	if path == "/" || path != "" && path[0] == '/' && path[len(path)-1] != '/' && !strings.Contains(path, "//") {
		return path
	}
	parts := splitPath(path)
	return "/" + strings.Join(parts, "/")
}
