package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestBadConfigFailsBeforeReadyGate checks that a configuration error
// ends nwcload at once with status 2 and the error, before it waits for
// /readyz: nothing listens on the URL, and the gate would wait 30 s.
func TestBadConfigFailsBeforeReadyGate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	code := run([]string{"-url", "http://127.0.0.1:1", "-schemes", "NWC*,SRX", "-ready-timeout", "30s"}, &stdout, &stderr)
	if code != 2 {
		t.Errorf("exit status %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("took %v to refuse the configuration", elapsed)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"SRX"`) {
		t.Errorf("stderr does not name the bad scheme:\n%s", msg)
	}
	if strings.Contains(msg, "waiting for") {
		t.Errorf("waited for the server before checking the configuration:\n%s", msg)
	}
}
