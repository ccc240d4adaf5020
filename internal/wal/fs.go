package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nwcq/internal/pager"
)

// File is the backing device of one log segment. It is the injectable
// I/O seam: production code uses OS files via DirFS, tests substitute
// MemFS (or fault-injecting wrappers around either) to crash the log at
// any write or sync step.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate cuts the file to size (recovery uses it to drop a torn
	// tail so appends resume on a clean frame boundary).
	Truncate(size int64) error
	// Sync makes previously written bytes durable.
	Sync() error
	// Size returns the current length in bytes.
	Size() (int64, error)
	Close() error
}

// FS is the directory holding the log's segment files.
type FS interface {
	// Create creates (or truncates) a segment file.
	Create(name string) (File, error)
	// Open opens an existing segment file for read and append.
	Open(name string) (File, error)
	// Remove deletes a segment file (checkpoint recycling).
	Remove(name string) error
	// List returns the segment file names, sorted ascending.
	List() ([]string, error)
}

// DirFS is the OS-backed FS: one directory, one file per segment.
type DirFS struct {
	dir string
}

// NewDirFS creates (if needed) and returns the directory-backed FS.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	return &DirFS{dir: dir}, nil
}

// Dir returns the backing directory path.
func (fs *DirFS) Dir() string { return fs.dir }

// Create implements FS.
func (fs *DirFS) Create(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (fs *DirFS) Open(name string) (File, error) {
	f, err := os.OpenFile(filepath.Join(fs.dir, name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (fs *DirFS) Remove(name string) error {
	return os.Remove(filepath.Join(fs.dir, name))
}

// List implements FS, returning only segment files.
func (fs *DirFS) List() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segmentSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// osFile adapts *os.File to File (Size via Stat).
type osFile struct {
	*os.File
}

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MemFS is an in-memory FS for tests and benchmarks, whose segments are
// pager.MemFiles. Its files persist
// across Open/Close cycles (the map owns the bytes), which is exactly
// what a crash-recovery harness needs: abandon the crashed log, reopen
// over the same MemFS, and the surviving bytes are what a real disk
// would hold.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*pager.MemFile
}

// NewMemFS returns an empty in-memory FS.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*pager.MemFile)} }

// Create implements FS.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := pager.NewMemFile()
	fs.files[name] = f
	return f, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, os.ErrNotExist)
	}
	return f, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("wal: remove %s: %w", name, os.ErrNotExist)
	}
	delete(fs.files, name)
	return nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		if strings.HasSuffix(name, segmentSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
