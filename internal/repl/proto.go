// Package repl implements WAL-shipping replication: the binary frame
// codec spoken between a leader's GET /wal/stream endpoint and the
// follower that tails it, plus the follower lifecycle (snapshot
// bootstrap, catch-up, live tail, reconnect with backoff, lag
// tracking).
//
// The stream is a flat sequence of length-delimited frames:
//
//	'S' snapshot header  [8B snapshot LSN][8B point count]
//	'P' point chunk      [4B n][n points, geom.PointSize bytes each]
//	'R' record           [8B lsn][4B payload len][payload]
//	'H' heartbeat        [8B leader durable LSN][8B leader committed LSN][8B unix nanos]
//
// A session either starts with one 'S' frame (followed by its 'P'
// chunks) when the follower's position was already recycled, or goes
// straight to 'R' frames. 'H' frames interleave at a fixed cadence so
// the follower can measure lag and detect divergence even when no
// records flow.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"nwcq"
	"nwcq/internal/geom"
)

// Frame type bytes.
const (
	FrameSnapshot  byte = 'S'
	FramePoints    byte = 'P'
	FrameRecord    byte = 'R'
	FrameHeartbeat byte = 'H'
)

const (
	// maxFramePayload bounds a record frame's payload, mirroring the
	// WAL's own record limit; larger lengths are stream corruption.
	maxFramePayload = 16 << 20
	// maxPointChunk bounds one 'P' frame (the writer chunks at
	// SnapshotChunk, far below this).
	maxPointChunk = 1 << 20
	// SnapshotChunk is how many points the writer packs per 'P' frame.
	SnapshotChunk = 4096
)

// Writer encodes frames onto a stream.
type Writer struct {
	w       io.Writer
	scratch []byte
}

// NewWriter wraps w. Callers own buffering and flushing.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Snapshot writes a snapshot header: count points follow in 'P' chunks,
// and the whole set represents the leader's state at lsn.
func (w *Writer) Snapshot(lsn uint64, count int) error {
	var buf [17]byte
	buf[0] = FrameSnapshot
	binary.BigEndian.PutUint64(buf[1:9], lsn)
	binary.BigEndian.PutUint64(buf[9:17], uint64(count))
	_, err := w.w.Write(buf[:])
	return err
}

// Points writes one chunk of snapshot points.
func (w *Writer) Points(pts []nwcq.Point) error {
	w.scratch = binary.BigEndian.AppendUint32(append(w.scratch[:0], FramePoints), uint32(len(pts)))
	w.scratch = geom.AppendPoints(w.scratch, pts)
	_, err := w.w.Write(w.scratch)
	return err
}

// Record writes one committed WAL record.
func (w *Writer) Record(lsn uint64, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("repl: record of %d bytes exceeds frame limit", len(payload))
	}
	var hdr [13]byte
	hdr[0] = FrameRecord
	binary.BigEndian.PutUint64(hdr[1:9], lsn)
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(payload)
	return err
}

// Heartbeat writes the leader's position so the follower can measure
// lag without traffic.
func (w *Writer) Heartbeat(durable, committed uint64, at time.Time) error {
	var buf [25]byte
	buf[0] = FrameHeartbeat
	binary.BigEndian.PutUint64(buf[1:9], durable)
	binary.BigEndian.PutUint64(buf[9:17], committed)
	binary.BigEndian.PutUint64(buf[17:25], uint64(at.UnixNano()))
	_, err := w.w.Write(buf[:])
	return err
}

// Frame is one decoded stream element; the fields populated depend on
// Type.
type Frame struct {
	Type byte

	// FrameRecord
	LSN     uint64
	Payload []byte

	// FrameSnapshot (LSN shared above), FramePoints
	Count  uint64
	Points []nwcq.Point

	// FrameHeartbeat
	Durable   uint64
	Committed uint64
	At        time.Time
}

// Reader decodes frames off a stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader wraps r with its own buffering.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, 64<<10)} }

// Next blocks for the next frame. io.EOF (possibly wrapped) means the
// stream ended; the follower reconnects.
func (r *Reader) Next() (Frame, error) {
	t, err := r.r.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	switch t {
	case FrameSnapshot:
		var buf [16]byte
		if _, err := io.ReadFull(r.r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("repl: snapshot header: %w", err)
		}
		return Frame{
			Type:  FrameSnapshot,
			LSN:   binary.BigEndian.Uint64(buf[0:8]),
			Count: binary.BigEndian.Uint64(buf[8:16]),
		}, nil
	case FramePoints:
		var nbuf [4]byte
		if _, err := io.ReadFull(r.r, nbuf[:]); err != nil {
			return Frame{}, fmt.Errorf("repl: point chunk header: %w", err)
		}
		n := binary.BigEndian.Uint32(nbuf[:])
		if n > maxPointChunk {
			return Frame{}, fmt.Errorf("repl: point chunk of %d points exceeds limit", n)
		}
		raw, err := readBody(r.r, int(n)*geom.PointSize)
		if err != nil {
			return Frame{}, fmt.Errorf("repl: point chunk body: %w", err)
		}
		return Frame{Type: FramePoints, Points: geom.DecodePoints(raw)}, nil
	case FrameRecord:
		var hdr [12]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			return Frame{}, fmt.Errorf("repl: record header: %w", err)
		}
		plen := binary.BigEndian.Uint32(hdr[8:12])
		if plen == 0 || plen > maxFramePayload {
			return Frame{}, fmt.Errorf("repl: record payload of %d bytes", plen)
		}
		payload, err := readBody(r.r, int(plen))
		if err != nil {
			return Frame{}, fmt.Errorf("repl: record body: %w", err)
		}
		return Frame{
			Type:    FrameRecord,
			LSN:     binary.BigEndian.Uint64(hdr[0:8]),
			Payload: payload,
		}, nil
	case FrameHeartbeat:
		var buf [24]byte
		if _, err := io.ReadFull(r.r, buf[:]); err != nil {
			return Frame{}, fmt.Errorf("repl: heartbeat body: %w", err)
		}
		return Frame{
			Type:      FrameHeartbeat,
			Durable:   binary.BigEndian.Uint64(buf[0:8]),
			Committed: binary.BigEndian.Uint64(buf[8:16]),
			At:        time.Unix(0, int64(binary.BigEndian.Uint64(buf[16:24]))),
		}, nil
	default:
		return Frame{}, fmt.Errorf("repl: unknown frame type %q", t)
	}
}

// readBody reads an n-byte frame body into a buffer that grows with the
// bytes that arrive, not with the length a header claims: a hostile or
// torn header costs what the stream delivers.
func readBody(r io.Reader, n int) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err == nil && len(b) < n {
		err = io.ErrUnexpectedEOF
	}
	return b, err
}
