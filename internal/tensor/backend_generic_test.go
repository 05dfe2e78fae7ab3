//go:build !amd64 || purego || race

package tensor

import "testing"

// backends lists the kernel backends this build contains: off amd64, under
// -tags purego and under -race, only the portable loops.
var backends = []backend{{"go"}}

type backend struct{ name string }

func (backend) use(testing.TB) {}
