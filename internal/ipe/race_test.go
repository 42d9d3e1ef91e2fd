//go:build race

package ipe

// raceEnabled reports whether the race detector instruments this build. Its
// instrumentation changes which operand the Go compiler makes an addition's
// destination, and with it which NaN payload a Go oracle returns.
const raceEnabled = true
