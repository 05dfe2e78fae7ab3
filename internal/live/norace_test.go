//go:build !race

package live

const raceEnabled = false
