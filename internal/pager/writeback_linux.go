//go:build linux && (amd64 || arm64 || loong64 || riscv64 || s390x)

package pager

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages, waiting for none of it.
const syncFileRangeWrite = 0x2

// osWriteback returns a function that asks the kernel to start writing
// bytes [off, off+n) of f back to the device, nil if f has no
// descriptor. It goes through SyscallConn, which keeps the descriptor
// open for the call and leaves it non-blocking, as Fd would not. The
// ports listed above take sync_file_range's offsets in one register
// each; every other platform uses writeback_other.go.
func osWriteback(f *os.File) func(off, n int64) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return nil
	}
	return func(off, n int64) error {
		var errno syscall.Errno
		if err := rc.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall6(syscall.SYS_SYNC_FILE_RANGE, fd, uintptr(off), uintptr(n), syncFileRangeWrite, 0, 0)
		}); err != nil {
			return err
		}
		if errno != 0 {
			return errno
		}
		return nil
	}
}
