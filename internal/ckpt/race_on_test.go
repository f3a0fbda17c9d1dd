//go:build race

package ckpt

// raceEnabled is set under the race detector, which makes sync.Pool drop a
// share of what it is given: allocation bounds that rest on pooled scratch
// do not hold there.
const raceEnabled = true
