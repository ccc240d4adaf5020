package nwcq

import (
	"errors"
	"sync"

	"nwcq/internal/pager"
	"nwcq/internal/wal"
)

// Hooks for the model test (model_test.go). It lives in package
// nwcq_test because it drives internal/shard's router beside the index,
// and a package-nwcq test cannot import internal/shard.

// MemDisk is one paged index's storage in memory: a page file and a WAL
// directory that outlive an abandoned index the way a disk outlives a
// killed process. Every write, sync, truncate and segment create or
// remove on either goes through one crash injector.
type MemDisk struct {
	memPaged
	inj crashInjector
}

// NewMemDisk returns an empty disk with its injector unarmed.
func NewMemDisk() *MemDisk { return &MemDisk{memPaged: *newMemPaged()} }

// modelOptions keep a short script inside the protocol's interesting
// phases: a small fan-out splits nodes, 1 KiB segments rotate, a 768-byte
// threshold checkpoints and recycles mid-script, and retained views
// answer as-of reads.
var modelOptions = buildOptions{
	maxEntries: 8, gridCellSize: 8,
	walSegmentBytes: 1 << 10, walCheckpointBytes: 768, viewRetention: 64,
}

func (d *MemDisk) files() (pagedFile, wal.FS) {
	return &crashFile{MemFile: d.pf, inj: &d.inj, headerAtomic: true}, &crashFS{fs: d.mfs, inj: &d.inj}
}

// Build builds a paged index of pts on the disk.
func (d *MemDisk) Build(pts []Point) (*PagedIndex, error) {
	f, fs := d.files()
	return buildPagedOn(pts, f, fs, modelOptions)
}

// Open disarms the injector and recovers whatever the disk holds.
func (d *MemDisk) Open() (*PagedIndex, error) {
	d.inj.arm(-1)
	f, fs := d.files()
	return openPagedOn(f, fs, modelOptions)
}

// ArmCrash makes the k-th I/O step from now fail, tearing a write in
// half, and every step after it fail too.
func (d *MemDisk) ArmCrash(k int) { d.inj.arm(k) }

// Armed reports a crash that is armed and has not fired yet.
func (d *MemDisk) Armed() bool {
	d.inj.mu.Lock()
	defer d.inj.mu.Unlock()
	return d.inj.armed && !d.inj.crashed
}

// Crashed reports that the armed crash fired.
func (d *MemDisk) Crashed() bool { return d.inj.didCrash() }

var errCrash = errors.New("injected crash")

// crashInjector is one step countdown shared by a page file and its WAL
// directory. Unarmed (the zero value, or arm(-1)) it is a no-op; armed
// at k, the k-th I/O step fails — the crash lands there — and every
// later step fails too: the process is dead.
type crashInjector struct {
	mu        sync.Mutex
	armed     bool
	remaining int
	crashed   bool
	// pageTear is the length of the page-file write the crash landed
	// on, zero when it landed anywhere else; headers counts the header
	// writes that reached the page file since the injector was armed, and
	// pageWrites holds the length of every other write that did.
	pageTear, headers int
	pageWrites        []int
}

func (c *crashInjector) arm(k int) {
	c.mu.Lock()
	c.armed, c.remaining, c.crashed, c.pageTear, c.headers, c.pageWrites = k >= 0, k, false, 0, 0, nil
	c.mu.Unlock()
}

// step consumes one I/O step. failed means the operation must error;
// torn marks the single operation the crash lands on, whose write may
// be half-applied before the error.
func (c *crashInjector) step() (torn, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return false, false
	}
	if c.crashed {
		return false, true
	}
	if c.remaining > 0 {
		c.remaining--
		return false, false
	}
	c.crashed = true
	return true, true
}

func (c *crashInjector) didCrash() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// crashFile injects failures into one file's mutating operations. Reads
// never fail: the interesting states are what survives on "disk", not
// read errors. With headerAtomic (the page file) the offset-0 write is
// all-or-nothing, matching the protocol's documented assumption that
// the pager's header-page write is atomic, and a torn page write is
// recorded in the injector's pageTear; WAL segment writes tear freely,
// since the frame CRC scan is exactly the mechanism that handles them.
type crashFile struct {
	*pager.MemFile
	inj          *crashInjector
	headerAtomic bool
}

func (f *crashFile) WriteAt(p []byte, off int64) (int, error) {
	torn, failed := f.inj.step()
	if failed {
		if torn && f.headerAtomic {
			f.inj.mu.Lock()
			f.inj.pageTear = len(p)
			f.inj.mu.Unlock()
		}
		if torn && !(f.headerAtomic && off == 0) && len(p) > 1 {
			_, _ = f.MemFile.WriteAt(p[:len(p)/2], off)
		}
		return 0, errCrash
	}
	if f.headerAtomic {
		f.inj.mu.Lock()
		if off == 0 {
			f.inj.headers++
		} else {
			f.inj.pageWrites = append(f.inj.pageWrites, len(p))
		}
		f.inj.mu.Unlock()
	}
	return f.MemFile.WriteAt(p, off)
}

func (f *crashFile) Sync() error {
	if _, failed := f.inj.step(); failed {
		return errCrash
	}
	return f.MemFile.Sync()
}

func (f *crashFile) Truncate(size int64) error {
	if _, failed := f.inj.step(); failed {
		return errCrash
	}
	return f.MemFile.Truncate(size)
}

// crashFS wraps a MemFS so segment files created through it carry the
// injector, and segment create/remove count as crashable steps.
type crashFS struct {
	fs  *wal.MemFS
	inj *crashInjector
}

func (c *crashFS) Create(name string) (wal.File, error) {
	if _, failed := c.inj.step(); failed {
		return nil, errCrash
	}
	f, err := c.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{MemFile: f.(*pager.MemFile), inj: c.inj}, nil
}

func (c *crashFS) Open(name string) (wal.File, error) {
	f, err := c.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &crashFile{MemFile: f.(*pager.MemFile), inj: c.inj}, nil
}

func (c *crashFS) Remove(name string) error {
	if _, failed := c.inj.step(); failed {
		return errCrash
	}
	return c.fs.Remove(name)
}

func (c *crashFS) List() ([]string, error) { return c.fs.List() }
