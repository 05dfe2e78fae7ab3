package live

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// ServerConfig builds the spyker.Config of server id in an n-server
// deployment driven by hyper h, with clientsHere of the deployment's
// clients attached to this server. Multi-process deployments
// (spyker-live -role server) use it so every process derives the same
// protocol parameters from the same hyper flags.
func ServerConfig(id, n, clientsHere int, h fl.Hyper) spyker.Config {
	return spyker.Config{
		ID:           id,
		NumServers:   n,
		NumClients:   clientsHere,
		EtaServer:    h.EtaServer,
		Phi:          h.Phi,
		EtaA:         h.EtaA,
		HInter:       h.HInter,
		HIntra:       h.HIntra,
		ClientLR:     h.ClientLR,
		DecayEnabled: h.DecayEnabled,
		Beta:         h.Beta,
		EtaMin:       h.EtaMin,
		TokenTimeout: h.TokenTimeout,
		SyncRetry:    h.SyncRetry,
	}
}
