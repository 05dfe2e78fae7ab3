package experiments

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/obs"
)

// lineageCut is where the truncated reading starts, in virtual seconds:
// it keeps what a tracer ring that dropped every older event holds.
const lineageCut = 6.0

// lineageCases are the runs the lineage oracle reads.
var lineageCases = []struct {
	name  string
	plan  *fault.Plan
	check func(*testing.T, []obs.Event) // what the run must show, or nil
}{
	{"fault-free", nil, nil},
	{"drop-crash", &fault.Plan{Seed: 2, Events: []fault.Event{
		{At: 1, Kind: fault.KindLinkDrop, Src: fault.Any, Dst: fault.Any, Duration: 60, P: 0.3},
		{At: 4, Kind: fault.KindCrash, Server: fault.TokenHolder, Duration: 3},
	}}, nil},
	// Every link into server 1 is slower than SyncRetry, so a holder's
	// retry copy is sent before the copy it repeats has arrived.
	{"slow-into-1", &fault.Plan{Seed: 3, Events: []fault.Event{
		{At: 1, Kind: fault.KindLinkDelay, Src: fault.Any, Dst: 1, Duration: 60, Extra: 4},
	}}, requireStaleCopyMerged},
	// Periodic snapshots: a restarted server resumes from one taken before
	// its crash, behind what it had merged.
	{"checkpoint-crash", &fault.Plan{Seed: 5, CheckpointEvery: 2, Events: []fault.Event{
		{At: 5, Kind: fault.KindCrash, Server: fault.TokenHolder, Duration: 1.5},
		{At: 7.5, Kind: fault.KindCrash, Server: 2, Duration: 1},
	}}, nil},
	{"join-leave", &fault.Plan{Seed: 4, Events: []fault.Event{
		{At: 3, Kind: fault.KindJoin, Server: fault.TokenHolder},
		{At: 5, Kind: fault.KindJoin, Server: 1},
		{At: 7, Kind: fault.KindLeave, Server: 2},
	}}, nil},
}

// lineageRun runs Spyker on the stub model under plan: the failover
// study's deployment shrunk to 12 clients and 10 virtual seconds, traced
// whole.
func lineageRun(t *testing.T, plan *fault.Plan) []obs.Event {
	t.Helper()
	setup, _ := recoverySetup(12, 4, 1, 10, plan)
	setup.DatasetScale = 0.2
	tracer := obs.NewTracer(1 << 17)
	setup.Trace = tracer
	if _, err := runPrepared("spyker", setup, useQuadModel); err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("the tracer dropped %d events: the complete reading is not complete", tracer.Dropped())
	}
	return tracer.Events()
}

// TestCrossCommitOracleLineage pins what spyker-trace's provenance and
// critical-path modes print for the lineage cases, each read whole and from
// lineageCut on: the slowest journeys and paths as text, and every journey
// and path by the SHA-256 of its full rendering, against
// testdata/golden/lineage-*.txt. Nine of the ten were recorded while
// every event still carried its server's merged-updates frontier; here
// obs.BuildLineage rebuilds the frontiers from the events alone. The tenth,
// checkpoint-crash-tail, is recorded from the rebuild: a server restored
// from a snapshot older than its crash rolled its own count back, so the
// carried frontier numbered its next updates with sequence numbers its
// peers had already seen and showed seven of them never propagating. The
// rebuild, which cannot see the snapshot from the cut on, numbers them
// afresh and shows them reaching every server (131 against 138 fully
// propagated; the rest of the file is unchanged).
func TestCrossCommitOracleLineage(t *testing.T) {
	for _, c := range lineageCases {
		t.Run(c.name, func(t *testing.T) {
			evs := lineageRun(t, c.plan)
			if c.check != nil {
				c.check(t, evs)
			}
			cut := sort.Search(len(evs), func(i int) bool { return evs[i].Time >= lineageCut })
			for _, r := range []struct {
				name string
				evs  []obs.Event
			}{{"complete", evs}, {"tail", evs[cut:]}} {
				l := obs.BuildLineage(r.evs)
				full := sha256.New()
				l.WriteProvenance(full, math.MaxInt)
				l.WriteCritPath(full, math.MaxInt)
				var b strings.Builder
				l.WriteProvenance(&b, 30)
				b.WriteString("\n")
				l.WriteCritPath(&b, 15)
				fmt.Fprintf(&b, "\nsha256 of every journey and path: %x\n", full.Sum(nil))
				golden(t, "lineage-"+c.name+"-"+r.name, b.String())
			}
		})
	}
}

// requireStaleCopyMerged fails t unless some server merged a copy of a
// round after its sender had sent a later copy of it: the case in which
// only the copy's own UID says which frontier was merged.
func requireStaleCopyMerged(t *testing.T, evs []obs.Event) {
	t.Helper()
	latest := make(map[[2]int]int) // (sender, bid) -> latest copy sent so far
	for _, e := range evs {
		s, bid, c, ok := e.UID.Round()
		switch {
		case !ok:
		case e.Kind == obs.KindSyncStart:
			latest[[2]int{s, bid}] = max(latest[[2]int{s, bid}], c)
		case e.Kind == obs.KindServerAgg && c < latest[[2]int{s, bid}]:
			return
		}
	}
	t.Fatal("no server merged a copy after a later copy of its round was sent")
}
