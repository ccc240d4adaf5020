package metrics

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the serving binary: the main module's version as
// stamped by the Go toolchain ("(devel)" for plain go build, the module
// version for released binaries) and the Go toolchain that compiled it.
// Both expositions carry it so a latency regression surfaced by the
// load harness can be tied to the exact build that produced it.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
}

var buildOnce = sync.OnceValue(func() BuildInfo {
	b := BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	if info, ok := debug.ReadBuildInfo(); ok && info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	return b
})

// Build returns the process's build identity, resolved once.
func Build() BuildInfo { return buildOnce() }
