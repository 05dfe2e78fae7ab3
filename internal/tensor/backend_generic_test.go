//go:build !amd64 || purego

package tensor

import "testing"

// backends lists the kernel backends this build contains: off amd64 and
// under -tags purego, only the portable loops.
var backends = []backend{{"go"}}

type backend struct{ name string }

func (backend) use(testing.TB) {}
