package audit

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

func TestReplayReconstructsVerdicts(t *testing.T) {
	events := []obs.Event{
		{Time: 1.0, Kind: obs.KindAudit, Node: 0, Peer: 5, Note: RuleNormOutlier, Score: 8.5},
		{Time: 1.2, Kind: obs.KindClientUpdate, Node: 0, Peer: 5}, // ignored
		{Time: 2.0, Kind: obs.KindAudit, Node: 1, Peer: 5, Note: RuleNormOutlier, Score: 7.0},
		{Time: 3.0, Kind: obs.KindAudit, Node: 0, Peer: 5, Note: ClearPrefix + RuleNormOutlier},
		{Time: 4.0, Kind: obs.KindAudit, Node: 0, Peer: 2, Note: RuleCollusion, Score: 0.97},
		{Time: 4.0, Kind: obs.KindAudit, Node: 0, Peer: 3, Note: RuleCollusion, Score: 0.97},
	}
	rep := Replay(events)
	if rep.Events != 5 {
		t.Fatalf("Events = %d, want 5", rep.Events)
	}
	if got := rep.FlaggedClients(); !reflect.DeepEqual(got, []int{2, 3, 5}) {
		t.Fatalf("FlaggedClients = %v, want [2 3 5]", got)
	}

	var c5 *ClientReport
	for i := range rep.Clients {
		if rep.Clients[i].Client == 5 {
			c5 = &rep.Clients[i]
		}
	}
	if c5 == nil {
		t.Fatal("client 5 missing from report")
	}
	if c5.Raises[RuleNormOutlier] != 2 || c5.Clears[RuleNormOutlier] != 1 {
		t.Fatalf("client 5 counts wrong: raises %v clears %v", c5.Raises, c5.Clears)
	}
	if c5.FirstFlag != 1.0 || c5.LastFlag != 2.0 {
		t.Fatalf("client 5 flag window [%v, %v], want [1, 2]", c5.FirstFlag, c5.LastFlag)
	}
	if !reflect.DeepEqual(c5.Servers, []int{0, 1}) {
		t.Fatalf("client 5 servers %v, want [0 1]", c5.Servers)
	}
	// Server 0 cleared but server 1 never did: the rule is still active.
	if !reflect.DeepEqual(c5.Active, []string{RuleNormOutlier}) {
		t.Fatalf("client 5 active %v, want [norm-outlier]", c5.Active)
	}
	if ff, ok := rep.FirstFlagTime(2); !ok || ff != 4.0 {
		t.Fatalf("FirstFlagTime(2) = %v %v, want 4.0 true", ff, ok)
	}
	if _, ok := rep.FirstFlagTime(99); ok {
		t.Fatal("FirstFlagTime of an unflagged client must report ok=false")
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	rep := Replay([]obs.Event{{Time: 1, Kind: obs.KindClientUpdate}})
	if rep.Events != 0 || len(rep.Clients) != 0 {
		t.Fatalf("non-audit trace produced report %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no audit verdicts") {
		t.Fatalf("empty report text: %q", buf.String())
	}
}

// TestReplayMatchesOnlineRecorder round-trips the live verdict stream
// through the offline analyzer: every client the recorder flags must
// appear in the replayed report with the same active rules.
func TestReplayMatchesOnlineRecorder(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(2, sink)
	rng := rand.New(rand.NewSource(10))
	feedRounds(rec, 6, 25, func(c, t int) []float64 {
		if c == 0 {
			return randUnit(rng, 12)
		}
		return randUnit(rng, 1)
	})
	rep := Replay(sink.events)
	if !reflect.DeepEqual(rep.FlaggedClients(), rec.Flagged()) {
		t.Fatalf("offline flagged %v, online flagged %v", rep.FlaggedClients(), rec.Flagged())
	}
	for _, id := range rec.Flagged() {
		var cr *ClientReport
		for i := range rep.Clients {
			if rep.Clients[i].Client == id {
				cr = &rep.Clients[i]
			}
		}
		if cr == nil || !reflect.DeepEqual(cr.Active, rec.Flags(id)) {
			t.Fatalf("client %d: offline active %v, online flags %v", id, cr.Active, rec.Flags(id))
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "c0") || !strings.Contains(out, RuleNormOutlier) {
		t.Fatalf("report text missing flagged client:\n%s", out)
	}
}
