//go:build race

package live

// raceEnabled reports a -race build, whose runtime allocates on its own
// account, so the allocation guards skip there.
const raceEnabled = true
