package repl

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"nwcq"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pts := []nwcq.Point{
		{X: 1.5, Y: -2.25, ID: 42},
		{X: math.MaxFloat64, Y: math.SmallestNonzeroFloat64, ID: math.MaxUint64},
		{X: 0, Y: 0, ID: 0},
	}
	at := time.Unix(0, 1754550000000000000)
	if err := w.Snapshot(77, len(pts)); err != nil {
		t.Fatal(err)
	}
	if err := w.Points(pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Record(78, []byte{1, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Heartbeat(80, 79, at); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	fr, err := r.Next()
	if err != nil || fr.Type != FrameSnapshot || fr.LSN != 77 || fr.Count != uint64(len(pts)) {
		t.Fatalf("snapshot frame = %+v, %v", fr, err)
	}
	fr, err = r.Next()
	if err != nil || fr.Type != FramePoints || len(fr.Points) != len(pts) {
		t.Fatalf("points frame = %+v, %v", fr, err)
	}
	for i, p := range pts {
		if fr.Points[i] != p {
			t.Fatalf("point %d = %+v, want %+v", i, fr.Points[i], p)
		}
	}
	fr, err = r.Next()
	if err != nil || fr.Type != FrameRecord || fr.LSN != 78 || !bytes.Equal(fr.Payload, []byte{1, 0, 0, 0, 0}) {
		t.Fatalf("record frame = %+v, %v", fr, err)
	}
	fr, err = r.Next()
	if err != nil || fr.Type != FrameHeartbeat || fr.Durable != 80 || fr.Committed != 79 || !fr.At.Equal(at) {
		t.Fatalf("heartbeat frame = %+v, %v", fr, err)
	}
	if _, err = r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(strings.NewReader("X")).Next(); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
		t.Fatalf("unknown frame type: %v", err)
	}
	// A record frame claiming a payload beyond the limit is corruption,
	// not an allocation request.
	var buf bytes.Buffer
	buf.WriteByte(FrameRecord)
	buf.Write(make([]byte, 8))                // lsn
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length
	if _, err := NewReader(&buf).Next(); err == nil {
		t.Fatal("oversized record length accepted")
	}
	// A truncated frame body is an error, not a hang or a zero frame.
	var buf2 bytes.Buffer
	w := NewWriter(&buf2)
	if err := w.Record(5, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-2]
	if _, err := NewReader(bytes.NewReader(trunc)).Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestWriterChunksLargePointSets(t *testing.T) {
	// One writer reused across chunks must not corrupt earlier frames
	// via its scratch buffer.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	a := []nwcq.Point{{X: 1, Y: 1, ID: 1}, {X: 2, Y: 2, ID: 2}}
	b := []nwcq.Point{{X: 3, Y: 3, ID: 3}}
	if err := w.Points(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Points(b); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	fr, err := r.Next()
	if err != nil || len(fr.Points) != 2 || fr.Points[0].ID != 1 || fr.Points[1].ID != 2 {
		t.Fatalf("first chunk = %+v, %v", fr, err)
	}
	fr, err = r.Next()
	if err != nil || len(fr.Points) != 1 || fr.Points[0].ID != 3 {
		t.Fatalf("second chunk = %+v, %v", fr, err)
	}
}

// TestTruncatedHeaderAllocatesLittle sends a header claiming the largest
// body its limit allows, then ends the stream. The reader must fail
// having allocated for the bytes that arrived, not for the claim (24 MiB
// of points, 16 MiB of payload).
func TestTruncatedHeaderAllocatesLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  []byte
	}{
		{"points", []byte{FramePoints, 0x00, 0x10, 0x00, 0x00}},
		{"record", []byte{FrameRecord, 0, 0, 0, 0, 0, 0, 0, 9, 0x01, 0x00, 0x00, 0x00}},
	} {
		r := NewReader(bytes.NewReader(tc.hdr))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.Next()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated frame accepted", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: a %d-byte header allocated %d bytes", tc.name, len(tc.hdr), got)
		}
	}
}

// FuzzReplFrame reads frames off a fuzzed stream until the first error.
// Every frame read must write back to the bytes it was read from, and
// the reader must never panic. Seeds are in testdata/fuzz/FuzzReplFrame:
// one frame of each type, a whole session, headers claiming bodies that
// never arrive, an empty and an oversized record, a chunk past its
// limit and an unknown type.
func FuzzReplFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var out bytes.Buffer
		w := NewWriter(&out)
		for {
			fr, err := r.Next()
			if err != nil {
				break
			}
			switch fr.Type {
			case FrameSnapshot:
				err = w.Snapshot(fr.LSN, int(fr.Count))
			case FramePoints:
				err = w.Points(fr.Points)
			case FrameRecord:
				err = w.Record(fr.LSN, fr.Payload)
			case FrameHeartbeat:
				err = w.Heartbeat(fr.Durable, fr.Committed, fr.At)
			default:
				t.Fatalf("reader returned frame type %q", fr.Type)
			}
			if err != nil {
				t.Fatalf("frame %+v does not write: %v", fr, err)
			}
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("frames write back as %x, read from %x", out.Bytes(), data)
		}
	})
}
