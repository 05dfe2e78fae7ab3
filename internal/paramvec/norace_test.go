//go:build !race

package paramvec

const raceEnabled = false
