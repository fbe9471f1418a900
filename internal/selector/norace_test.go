//go:build !race

package selector

// raceDetector is false in ordinary builds; see race_test.go.
const raceDetector = false
