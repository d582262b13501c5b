package diskfaults

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"daasscale/internal/fsio"
)

// MemFS is an in-memory fsio.FS that models durability the way a real
// disk does under power loss, CrashMonkey-style: every file keeps two
// images — the live bytes (what reads and writes see) and the synced
// prefix (what an fsync has made durable) — and every directory keeps two
// entry maps (live and synced, advanced by SyncDir). Crash discards
// everything volatile: files revert to their last-synced contents,
// un-synced creates and renames un-happen, and handles opened before the
// crash are dead. That lets the crash-consistency harness simulate a
// power cut at any operation boundary without killing the test process.
//
// MemFS is goroutine-safe; one mutex covers the whole tree (the workloads
// it serves are fsync-bound, not lock-bound).
type MemFS struct {
	mu     sync.Mutex
	dirs   map[string]*memDir
	tmpSeq int
	epoch  int
}

// memNode is one file: live contents and the contents the last fsync made
// durable.
type memNode struct {
	live   []byte
	synced []byte
	mode   os.FileMode
}

// memDir is one directory: live entries and the entries the last SyncDir
// made durable. Entries share *memNode identity, so a rename that moves a
// node keeps the node's own sync state.
type memDir struct {
	live   map[string]*memNode
	synced map[string]*memNode
}

// NewMemFS builds an empty in-memory filesystem with a root directory.
func NewMemFS() *MemFS {
	m := &MemFS{dirs: make(map[string]*memDir)}
	m.dirs["/"] = newMemDir()
	return m
}

func newMemDir() *memDir {
	return &memDir{live: make(map[string]*memNode), synced: make(map[string]*memNode)}
}

// Crash simulates a power cut: every directory reverts to its last
// SyncDir'd entry set, every file to its last fsync'd contents, and every
// handle opened before the crash fails all further operations (the
// process holding it is, in the scenario being modeled, dead). The
// filesystem is immediately usable again — the harness "restarts the
// machine" by simply opening fresh handles.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.epoch++
	for _, d := range m.dirs {
		d.live = make(map[string]*memNode, len(d.synced))
		for name, n := range d.synced {
			d.live[name] = n
		}
	}
	// Revert node contents. Nodes are shared across maps, so walk the
	// (restored) live views once.
	seen := make(map[*memNode]bool)
	for _, d := range m.dirs {
		for _, n := range d.live {
			if !seen[n] {
				seen[n] = true
				n.live = append([]byte(nil), n.synced...)
			}
		}
	}
}

func notExist(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

// dir returns the directory holding name, or nil.
func (m *MemFS) dir(name string) *memDir {
	return m.dirs[filepath.Clean(filepath.Dir(name))]
}

// MkdirAll creates path and any missing parents. Directory creation is
// modeled as immediately durable — the harness targets file-data and
// rename durability, and every caller creates its directories once at
// startup, outside the faulted window.
func (m *MemFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := filepath.Clean(path)
	for {
		if _, ok := m.dirs[p]; !ok {
			m.dirs[p] = newMemDir()
		}
		parent := filepath.Dir(p)
		if parent == p {
			return nil
		}
		p = parent
	}
}

// OpenFile opens (or with os.O_CREATE creates) name.
func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (fsio.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dir(name)
	if d == nil {
		return nil, notExist("open", name)
	}
	base := filepath.Base(name)
	n, ok := d.live[base]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		n = &memNode{mode: perm}
		d.live[base] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.live = nil
	}
	h := &memFile{fs: m, node: n, name: name, epoch: m.epoch}
	if flag&os.O_APPEND != 0 {
		h.pos = int64(len(n.live))
	}
	return h, nil
}

// CreateTemp creates a unique temp file in dir, substituting the last "*"
// of pattern with a sequence number.
func (m *MemFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return nil, notExist("createtemp", dir)
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for {
		m.tmpSeq++
		base := fmt.Sprintf("%s%d%s", prefix, m.tmpSeq, suffix)
		if _, taken := d.live[base]; taken {
			continue
		}
		n := &memNode{mode: 0o600}
		d.live[base] = n
		return &memFile{fs: m, node: n, name: filepath.Join(dir, base), epoch: m.epoch}, nil
	}
}

// Rename moves oldpath to newpath in the live view; the move becomes
// durable only once the parent directory is SyncDir'd — until then a
// Crash reverts it, exactly like a real rename before a directory fsync.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	od, nd := m.dir(oldpath), m.dir(newpath)
	if od == nil || nd == nil {
		return notExist("rename", oldpath)
	}
	n, ok := od.live[filepath.Base(oldpath)]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(od.live, filepath.Base(oldpath))
	nd.live[filepath.Base(newpath)] = n
	return nil
}

// Remove deletes name from the live view.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dir(name)
	if d == nil {
		return notExist("remove", name)
	}
	base := filepath.Base(name)
	if _, ok := d.live[base]; !ok {
		return notExist("remove", name)
	}
	delete(d.live, base)
	return nil
}

// ReadFile returns a copy of name's live contents.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dir(name)
	if d == nil {
		return nil, notExist("readfile", name)
	}
	n, ok := d.live[filepath.Base(name)]
	if !ok {
		return nil, notExist("readfile", name)
	}
	return append([]byte(nil), n.live...), nil
}

// ReadDir lists name's live entries in sorted order.
func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(name)]
	if d == nil {
		return nil, notExist("readdir", name)
	}
	names := make([]string, 0, len(d.live))
	for base := range d.live {
		names = append(names, base)
	}
	sort.Strings(names)
	ents := make([]os.DirEntry, len(names))
	for i, base := range names {
		ents[i] = memDirEntry{name: base, node: d.live[base]}
	}
	return ents, nil
}

// SyncDir makes the directory's current entry set durable: creates,
// removes, and renames up to this point survive a Crash.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.dirs[filepath.Clean(dir)]
	if d == nil {
		return notExist("syncdir", dir)
	}
	d.synced = make(map[string]*memNode, len(d.live))
	for name, n := range d.live {
		d.synced[name] = n
	}
	return nil
}

// memFile is one open handle: a position over a node. Handles opened
// before a Crash belong to a dead process and fail every operation.
type memFile struct {
	fs     *MemFS
	node   *memNode
	name   string
	pos    int64
	epoch  int
	closed bool
}

var errHandleLost = fmt.Errorf("diskfaults: file handle lost in power cut")

// check guards every operation against closed and pre-crash handles; it
// must be called with fs.mu held.
func (f *memFile) check() error {
	if f.closed {
		return os.ErrClosed
	}
	if f.epoch != f.fs.epoch {
		return errHandleLost
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if f.pos >= int64(len(f.node.live)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.live[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	end := f.pos + int64(len(p))
	if end > int64(len(f.node.live)) {
		grown := make([]byte, end)
		copy(grown, f.node.live)
		f.node.live = grown
	}
	copy(f.node.live[f.pos:end], p)
	f.pos = end
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	switch whence {
	case io.SeekStart:
		f.pos = offset
	case io.SeekCurrent:
		f.pos += offset
	case io.SeekEnd:
		f.pos = int64(len(f.node.live)) + offset
	default:
		return 0, fmt.Errorf("diskfaults: bad whence %d", whence)
	}
	if f.pos < 0 {
		return 0, fmt.Errorf("diskfaults: negative seek position")
	}
	return f.pos, nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return nil, err
	}
	return memFileInfo{name: filepath.Base(f.name), size: int64(len(f.node.live)), mode: f.node.mode}, nil
}

// Sync makes the file's current contents durable: a later Crash restores
// exactly these bytes.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	f.node.synced = append([]byte(nil), f.node.live...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	if size < 0 {
		return fmt.Errorf("diskfaults: negative truncate size")
	}
	if size < int64(len(f.node.live)) {
		f.node.live = f.node.live[:size]
	} else {
		for int64(len(f.node.live)) < size {
			f.node.live = append(f.node.live, 0)
		}
	}
	return nil
}

func (f *memFile) Chmod(mode os.FileMode) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	f.node.mode = mode
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	return nil
}

// memFileInfo / memDirEntry are the minimal metadata views the seam needs.
type memFileInfo struct {
	name string
	size int64
	mode os.FileMode
}

func (i memFileInfo) Name() string       { return i.name }
func (i memFileInfo) Size() int64        { return i.size }
func (i memFileInfo) Mode() os.FileMode  { return i.mode }
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return false }
func (i memFileInfo) Sys() interface{}   { return nil }

type memDirEntry struct {
	name string
	node *memNode
}

func (e memDirEntry) Name() string      { return e.name }
func (e memDirEntry) IsDir() bool       { return false }
func (e memDirEntry) Type() fs.FileMode { return 0 }
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: e.name, size: int64(len(e.node.live)), mode: e.node.mode}, nil
}
