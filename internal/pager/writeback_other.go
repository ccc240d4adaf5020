//go:build !(linux && (amd64 || arm64 || loong64 || riscv64 || s390x))

package pager

import "os"

// osWriteback offers no writeback hint here: the platform has no call
// that starts writeback of a byte range without waiting for it, or its
// Linux port takes sync_file_range's arguments in another order or in
// register pairs. The fsync then writes the whole file back, as it
// always did.
func osWriteback(*os.File) func(off, n int64) error { return nil }
