package pager

import (
	"hash/crc32"
	"testing"
)

// FuzzPagerOpen writes a fuzzed header payload, its CRC recomputed so the
// checksum is no defence, followed by a fuzzed number of valid zero
// pages, and opens the store. Open must return an error or a store whose
// page count the file backs, whose root is one of its pages, and whose
// allocator never hands out the header. Seeds are in
// testdata/fuzz/FuzzPagerOpen: a valid header, a zero and a 2³²−1 page
// count, a root past the count, a short payload and a wrong magic.
func FuzzPagerOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, header []byte, pages uint8) {
		file := NewMemFile()
		if _, err := file.WriteAt(sealed(header), 0); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= int(pages); i++ {
			if _, err := file.WriteAt(sealed(nil), int64(i)*PageSize); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(file)
		if err != nil {
			return
		}
		n := s.NumPages()
		if n < 1 || int64(n)*PageSize > int64(len(file.buf)) {
			t.Fatalf("opened a store of %d pages over a %d-byte file", n, len(file.buf))
		}
		if root, _ := s.UserRoot(); int(root) >= n {
			t.Fatalf("opened a store whose root %d is not among its %d pages", root, n)
		}
		for id := 1; id < n; id++ {
			if _, err := s.Read(PageID(id), nil); err != nil {
				t.Fatalf("page %d of %d unreadable: %v", id, n, err)
			}
		}
		id, err := s.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		if id == InvalidPage {
			t.Fatal("Allocate handed out the header page")
		}
	})
}

// sealed returns a page holding payload (cut to the payload size) and
// its checksum.
func sealed(payload []byte) []byte {
	raw := make([]byte, PageSize)
	copy(raw[:payloadSize], payload)
	putBE32(raw[payloadSize:], crc32.ChecksumIEEE(raw[:payloadSize]))
	return raw
}
