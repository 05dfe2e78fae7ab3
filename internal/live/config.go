package live

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// ServerConfig builds the spyker.Config of server id in an n-server
// deployment driven by hyper h, with clientsHere of the deployment's
// clients attached to this server. Multi-process deployments
// (spyker-live -role server) use it so every process derives the same
// protocol parameters from the same hyper flags — and the same ones the
// DES derives, because the mapping itself is spyker.ConfigFromHyper.
func ServerConfig(id, n, clientsHere int, h fl.Hyper) spyker.Config {
	return spyker.ConfigFromHyper(id, n, clientsHere, h)
}
