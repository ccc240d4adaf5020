package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"nwcq"
)

// GET /subscribe serves a standing NWC query as a Server-Sent Events
// stream. It takes the same parameters as GET /nwc; each event is one
// frame of the continuous query:
//
//	id: <lsn>
//	event: init | update | resync
//	data: {"kind":..,"lsn":..,"gen":..,"found":..,"group":..,"published_unix_ns":..}
//
// The first event (init) is the answer at the version the subscription
// attached at; update events follow every published mutation that can
// have changed the answer; a resync event means intermediate frames
// were coalesced away (slow consumer) and its payload is the current
// full answer. Comment lines (": hb") flow as heartbeats so proxies and
// clients can distinguish an idle stream from a dead one.
//
// Reconnecting clients send the standard Last-Event-ID header (or a
// last_event_id query parameter): when it still matches the current
// version the duplicate init frame is suppressed; when it does not, the
// first frame is delivered as a resync so the client knows states may
// have been missed in between. Delivery is at-least-once either way.
const (
	sseHeartbeatInterval = 10 * time.Second
)

var (
	errNoSubscriber = errors.New("backend does not support standing queries")
	errNoTemporal   = errors.New("backend does not retain past views (need a single index, see WithViewRetention)")
)

// asOfFrom parses the optional as_of_lsn parameter shared by /nwc and
// /knwc (temporal reads against a retained view).
func asOfFrom(vals url.Values) (uint64, bool, error) {
	v := vals.Get("as_of_lsn")
	if v == "" {
		return 0, false, nil
	}
	lsn, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("invalid as_of_lsn %q: %w", v, err)
	}
	return lsn, true, nil
}

// subFrameJSON is the data payload of one SSE event.
type subFrameJSON struct {
	Kind string `json:"kind"`
	LSN  uint64 `json:"lsn"`
	Gen  uint64 `json:"gen"`
	// PublishedUnixNS is when the triggering mutation published (0 on
	// init frames); subscribers derive publish→notify latency from it.
	PublishedUnixNS int64 `json:"published_unix_ns,omitempty"`
	nwcAnswer             // found and group only
}

func toSubFrameJSON(u *nwcq.SubUpdate) subFrameJSON {
	f := subFrameJSON{Kind: u.Kind, LSN: u.LSN, Gen: u.Gen, nwcAnswer: nwcAnswer{Found: u.Result.Found}}
	if !u.PublishedAt.IsZero() {
		f.PublishedUnixNS = u.PublishedAt.UnixNano()
	}
	if u.Result.Found {
		f.Group = &u.Result.Group
	}
	return f
}

// lastEventID reads the client's resume position: the standard SSE
// Last-Event-ID header, or a last_event_id query parameter for clients
// (curl) that cannot set headers per reconnect.
func lastEventID(r *http.Request, vals url.Values) (uint64, bool) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = vals.Get("last_event_id")
	}
	if v == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	sb, ok := s.idx.(nwcq.Subscriber)
	if !ok {
		s.fail(w, http.StatusNotImplemented, errNoSubscriber)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	vals := r.URL.Query()
	q, err := queryFrom(vals)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	sub, err := sb.Subscribe(q)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	defer sub.Close()
	resumeID, resuming := lastEventID(r, vals)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Frames are pulled in a goroutine so the write loop can interleave
	// heartbeats; done tears the puller down when the handler returns.
	type frameMsg struct {
		u   nwcq.SubUpdate
		err error
	}
	frames := make(chan frameMsg)
	done := make(chan struct{})
	defer close(done)
	ctx := r.Context()
	go func() {
		for {
			u, err := sub.Next(ctx, s.closing)
			select {
			case frames <- frameMsg{u, err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	beat := time.NewTicker(sseHeartbeatInterval)
	defer beat.Stop()
	first := true
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.closing:
			return
		case <-beat.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case m := <-frames:
			if m.err != nil {
				// Closed (shutdown) or evaluation error: end the stream; an
				// SSE client reconnects with Last-Event-ID and resumes.
				return
			}
			u := m.u
			if u.Kind == nwcq.SubResync {
				// Slow-subscriber visibility: one log line per coalescing
				// event, carrying enough to find the consumer.
				slog.Warn("slow subscriber: frames coalesced, delivering resync",
					"sub_id", sub.ID(), "lsn", u.LSN, "remote", r.RemoteAddr)
			}
			if first {
				first = false
				if resuming {
					if u.Kind == nwcq.SubInit && resumeID == u.LSN {
						continue // client already has this state
					}
					// The stream moved while the client was away: deliver the
					// current answer flagged as a resync.
					u.Kind = nwcq.SubResync
				}
			}
			data, err := json.Marshal(toSubFrameJSON(&u))
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", u.LSN, u.Kind, data); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}
