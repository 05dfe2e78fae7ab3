// Command livetcp runs the Spyker protocol over real TCP sockets on this
// machine — no simulation: 2 servers on ephemeral localhost ports, 8
// clients training a real CNN, full token-coordinated asynchronous model
// exchange, then an evaluation of the resulting global model.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/live"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		servers  = 2
		clients  = 8
		duration = 2 * time.Second
	)
	ds := data.GenerateImages(data.MNISTLike(10*clients, 200, 3))
	// The paper's CNN, narrowed (4 filters, 24 hidden units instead of 6 and
	// 32) so two seconds of wall-clock training go further.
	factory := func(s int64) fl.Model { return fl.NewMNISTClassifier(ds, 4, 24, s) }

	hyper := fl.DefaultHyper(clients, servers)
	hyper.HInter = 4
	hyper.HIntra = 80

	fmt.Printf("livetcp: %d real TCP servers + %d clients for %s of wall-clock training\n",
		servers, clients, duration)
	stats, err := live.RunCluster(live.ClusterConfig{
		NumServers: servers,
		NumClients: clients,
		Hyper:      hyper,
		NewModel:   factory,
		Shards:     data.PartitionByLabel(ds, clients, 2, 3),
		Seed:       3,
	}, duration)
	if err != nil {
		return err
	}

	fmt.Printf("updates aggregated: %v (total %d)\n", stats.UpdatesPerServer, stats.TotalUpdates())
	fmt.Printf("token syncs: %d, final model spread: %.4f, ages: %.1f\n",
		stats.SyncsTriggered, stats.ModelSpread, stats.FinalAges)

	loss, acc := stats.EvaluateAverage(factory(3))
	fmt.Printf("global model: held-out loss %.4f, accuracy %.1f%%\n", loss, 100*acc)
	return nil
}
