//go:build race

package cluster

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation budgets only hold without
// it.
const raceEnabled = true
