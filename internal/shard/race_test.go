//go:build race

package shard

// raceEnabled says the race detector is on: a slow suite runs a sample.
const raceEnabled = true
