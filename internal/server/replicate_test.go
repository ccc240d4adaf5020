package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nwcq"
	"nwcq/internal/repl"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// nwcBody fetches one NWC answer as decoded JSON for leader/follower
// comparison.
func nwcBody(t *testing.T, base string) map[string]any {
	t.Helper()
	var out map[string]any
	if code := getJSON(t, base+"/nwc?x=500&y=500&l=120&w=120&n=3", &out); code != http.StatusOK {
		t.Fatalf("nwc status %d", code)
	}
	delete(out, "stats") // I/O counters legitimately differ per process
	return out
}

// TestReplicationEndToEnd is the two-process deployment in miniature:
// a leader HTTP server shipping its WAL, a follower tailing it over
// GET /wal/stream into its own paged index, readiness gated on lag,
// mutations refused on the follower, and a leader kill/restart on the
// same address healed by reconnect — all with acked records preserved.
func TestReplicationEndToEnd(t *testing.T) {
	dir := t.TempDir()
	lpath := filepath.Join(dir, "leader.nwc")
	pts := make([]nwcq.Point, 400)
	for i := range pts {
		pts[i] = nwcq.Point{X: float64((i * 37) % 1000), Y: float64((i * 91) % 1000), ID: uint64(i + 1)}
	}
	leader, err := nwcq.BuildPaged(pts, lpath, nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	leaderSrv := &http.Server{Handler: New(leader, leader).Handler()}
	go leaderSrv.Serve(ln)

	// The follower: its own paged index, the replication client, and a
	// read-only server gated on replica readiness.
	fpath := filepath.Join(dir, "replica.nwc")
	replica, err := nwcq.BuildPaged(nil, fpath)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	follower, err := repl.New(repl.Config{
		Leader:     "http://" + addr,
		MaxLag:     time.Hour, // effectively "caught up once"
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}, replica)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		follower.Run(ctx)
	}()
	defer func() {
		cancel()
		<-followerDone
	}()
	followerTS := startTestServer(t, New(replica, nil, WithReplica(follower.Status)).Handler())

	// Catch-up: the bulk-built base must arrive via snapshot bootstrap.
	waitFor(t, "initial catch-up", func() bool {
		return follower.Status().Ready && replica.ReplicaLSN() == leader.ReplicationLSNs().Committed
	})
	if follower.Status().Snapshots == 0 {
		t.Fatal("bulk-built base arrived without a snapshot bootstrap")
	}
	if replica.Len() != leader.Len() {
		t.Fatalf("replica %d points, leader %d", replica.Len(), leader.Len())
	}

	// Mutations flow through: insert on the leader, observe it on the
	// follower, and the two answer NWC identically at the same LSN.
	var ins struct {
		Inserted bool `json:"inserted"`
	}
	if code := postJSON(t, "http://"+addr+"/insert", `{"x": 501, "y": 501, "id": 77001}`, &ins); code != http.StatusOK || !ins.Inserted {
		t.Fatalf("leader insert: code %d, %+v", code, ins)
	}
	waitFor(t, "live-tail convergence", func() bool {
		return replica.ReplicaLSN() == leader.ReplicationLSNs().Committed
	})
	if lb, fb := nwcBody(t, "http://"+addr), nwcBody(t, followerTS); !reflect.DeepEqual(lb, fb) {
		t.Fatalf("NWC diverges at the same LSN:\nleader   %v\nfollower %v", lb, fb)
	}

	// The follower is read-only.
	var ferr struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, followerTS+"/insert", `{"x": 1, "y": 1, "id": 9}`, &ferr); code != http.StatusNotImplemented {
		t.Fatalf("follower insert status %d, want 501", code)
	}
	// And ready while caught up.
	if resp, err := http.Get(followerTS + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower readyz: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
	// Follower metrics expose the replica block.
	var fm struct {
		Replica *repl.Status `json:"replica"`
	}
	if code := getJSON(t, followerTS+"/metrics", &fm); code != http.StatusOK || fm.Replica == nil || !fm.Replica.Ready {
		t.Fatalf("follower metrics replica block: code %d, %+v", code, fm.Replica)
	}

	// Kill the leader mid-stream: process gone, index abandoned without
	// Close (the crash case). Reopen on the same address; everything the
	// follower acked must still be covered, and replication must heal.
	leaderSrv.Close()
	// Drop pooled keep-alive connections to the dead listener so the
	// next request dials the restarted server instead of hitting EOF.
	http.DefaultClient.CloseIdleConnections()
	preKill := replica.ReplicaLSN()
	leader2, err := nwcq.OpenPaged(lpath)
	if err != nil {
		t.Fatalf("leader restart: %v", err)
	}
	defer leader2.Close()
	if c := leader2.ReplicationLSNs().Committed; c < preKill {
		t.Fatalf("restarted leader committed %d below follower position %d", c, preKill)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	leaderSrv2 := &http.Server{Handler: New(leader2, leader2).Handler()}
	go leaderSrv2.Serve(ln2)
	defer leaderSrv2.Close()

	waitFor(t, "post-restart insert to land", func() bool {
		return postJSONCode(t, "http://"+addr+"/insert", `{"x": 502, "y": 502, "id": 77002}`, &ins) == http.StatusOK
	})
	waitFor(t, "post-restart convergence", func() bool {
		return replica.ReplicaLSN() == leader2.ReplicationLSNs().Committed
	})
	if lb, fb := nwcBody(t, "http://"+addr), nwcBody(t, followerTS); !reflect.DeepEqual(lb, fb) {
		t.Fatalf("NWC diverges after leader restart:\nleader   %v\nfollower %v", lb, fb)
	}
	if follower.Status().Reconnects == 0 {
		t.Fatal("leader restart produced no reconnect")
	}
	// Prometheus exposition carries the follower gauges.
	values, typed := scrapeProm(t, followerTS)
	for _, want := range []string{"nwcq_replica_lag_seconds", "nwcq_replica_connected", "nwcq_replica_ready"} {
		if typed[want] != "gauge" {
			t.Fatalf("prometheus output: family %s has type %q, want gauge", want, typed[want])
		}
	}
	if values["nwcq_replica_ready"] != 1 {
		t.Fatalf("nwcq_replica_ready = %g, want 1", values["nwcq_replica_ready"])
	}
	if got, want := values["nwcq_replica_lsn"], float64(replica.ReplicaLSN()); got != want || want == 0 {
		t.Fatalf("nwcq_replica_lsn = %g, follower applied through %g", got, want)
	}
}

// TestReadyzGatesOnReplicaLag forces the staleness bound to trip: with
// the leader gone and a tiny MaxLag, /readyz must flip to 503.
func TestReadyzGatesOnReplicaLag(t *testing.T) {
	dir := t.TempDir()
	leader, err := nwcq.BuildPaged([]nwcq.Point{{X: 1, Y: 1, ID: 1}}, filepath.Join(dir, "leader.nwc"), nwcq.WithBulkLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	leaderSrv := &http.Server{Handler: New(leader, leader).Handler()}
	go leaderSrv.Serve(ln)

	replica, err := nwcq.BuildPaged(nil, filepath.Join(dir, "replica.nwc"))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	follower, err := repl.New(repl.Config{
		Leader:     "http://" + ln.Addr().String(),
		MaxLag:     150 * time.Millisecond,
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}, replica)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		follower.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	ts := startTestServer(t, New(replica, nil, WithReplica(follower.Status)).Handler())

	waitFor(t, "catch-up", func() bool { return follower.Ready() })
	// Kill the leader; heartbeats stop, lag grows past the bound.
	leaderSrv.Close()
	waitFor(t, "lag gate to trip", func() bool {
		resp, err := http.Get(ts + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
}

// TestWALStreamRequiresReplicator pins the 501 on backends without a
// WAL, and the 400 on a malformed position.
func TestWALStreamRequiresReplicator(t *testing.T) {
	idx, err := nwcq.Build([]nwcq.Point{{X: 1, Y: 1, ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := startTestServer(t, New(idx, idx).Handler())
	resp, err := http.Get(ts + "/wal/stream?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("wal/stream on in-memory index: status %d, want 501", resp.StatusCode)
	}

	px, err := nwcq.BuildPaged(nil, filepath.Join(t.TempDir(), "idx.nwc"))
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	ts2 := startTestServer(t, New(px, px).Handler())
	resp, err = http.Get(ts2 + "/wal/stream?from=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d, want 400", resp.StatusCode)
	}
}

// postJSONCode is postJSON but tolerant of transport errors (returns
// -1), for requests raced against a server restart.
func postJSONCode(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return -1
	}
	return resp.StatusCode
}

// startTestServer starts a plain HTTP server on a loopback port and
// registers its shutdown; unlike httptest.Server it shares the exact
// handler path production uses (flusher included).
func startTestServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return fmt.Sprintf("http://%s", ln.Addr())
}
