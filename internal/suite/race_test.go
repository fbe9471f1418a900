//go:build race

package suite

// raceDetector reports whether this test binary was built with -race.
// The equivalence matrix uses it to drop comparison legs that cannot
// race (sequential, single-worker runs): the detector's ~8x slowdown
// over 30 workflows × 3 configurations × 2 passes outgrows any sane
// package timeout on small hosts, and the w1 legs it drops are pinned
// by the unraced test and fault CI jobs anyway.
const raceDetector = true
