//go:build race

package diffra_test

// raceEnabled: see race_off_test.go.
const raceEnabled = true
