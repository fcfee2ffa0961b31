//go:build race

package nn

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so the zero-alloc bound only holds
// without it.
const raceEnabled = true
