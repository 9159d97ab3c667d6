//go:build race

package csvstore

const raceEnabled = true
