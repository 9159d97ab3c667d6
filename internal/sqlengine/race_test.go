//go:build race

package sqlengine_test

const raceEnabled = true
