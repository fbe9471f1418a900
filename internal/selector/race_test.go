//go:build race

package selector

// raceDetector reports whether this test binary was built with -race. The
// race detector instruments allocation and makes sync.Pool drop items at
// random, so allocation counts under it say nothing about the planner.
const raceDetector = true
