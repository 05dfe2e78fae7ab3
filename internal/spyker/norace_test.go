//go:build !race

package spyker

const raceEnabled = false
