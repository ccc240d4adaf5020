package rstar

import (
	"bytes"
	"testing"

	"nwcq/internal/pager"
)

// FuzzDecodeNode hands decodeNode a fuzzed page. It must return an error
// or a node that encodes back to the bytes it was read from (up to the
// zero padding after the last entry), and it must never panic. Pages
// longer than a page's payload are cut to it, as the pager never hands
// out more. Seeds are in testdata/fuzz/FuzzDecodeNode: a leaf, an
// internal node, an empty page, a count past the page, a kind byte that
// is neither leaf nor internal, and a short header.
func FuzzDecodeNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, page []byte) {
		if len(page) > pager.PayloadSize() {
			page = page[:pager.PayloadSize()]
		}
		n, err := decodeNode(7, page)
		if err != nil {
			return
		}
		enc, err := encodeNode(n)
		if err != nil {
			t.Fatalf("decoded node does not encode: %v", err)
		}
		if !bytes.Equal(enc, page[:len(enc)]) {
			t.Fatalf("node re-encodes as %x, read from %x", enc, page[:len(enc)])
		}
	})
}
