//go:build race

package experiments

// raceEnabled reports a -race build, whose runtime allocates on its own
// account (sync.Pool, for one, drops a share of what is put back).
const raceEnabled = true
