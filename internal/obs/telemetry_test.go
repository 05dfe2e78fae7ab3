package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestTelemetryRoundTrip(t *testing.T) {
	in := &Telemetry{
		Version:      TelemetryVersion,
		Time:         12.5,
		Server:       2,
		Addr:         "127.0.0.1:9102",
		DebugAddr:    "127.0.0.1:8102",
		Epoch:        3,
		Members:      []int{0, 1, 2},
		Addrs:        []string{"127.0.0.1:9100", "", "127.0.0.1:9102"},
		HoldsToken:   true,
		TokenSilence: 0.25,
		TokenTimeout: 1.5,
		SyncRetry:    0.75,
		Age:          4.5,
		Ages:         []float64{4.5, 4.25, 4.5},
		Updates:      26,
		TokenRegens:  1,
		MaxBidSeen:   5,
		Peers: []TelemetryPeer{
			{Peer: 0, OutboxDepth: 2},
			{Peer: 1, OutboxDepth: 0, Failed: true},
		},
		FailedOutboxes:  1,
		PeerReconnects:  3,
		StalenessBounds: []float64{1, 2, 4},
		StalenessCounts: []int64{5, 3, 1, 0},
		StalenessSum:    11.5,
	}
	var buf bytes.Buffer
	if err := WriteTelemetry(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Server != in.Server || out.Epoch != in.Epoch || !out.HoldsToken ||
		out.TokenSilence != in.TokenSilence || out.Updates != in.Updates {
		t.Errorf("round trip mismatch: %+v", out)
	}
	if len(out.Peers) != 2 || !out.Peers[1].Failed || out.Peers[0].OutboxDepth != 2 {
		t.Errorf("peers mismatch: %+v", out.Peers)
	}
	if got := out.StalenessTotal(); got != 9 {
		t.Errorf("StalenessTotal = %d, want 9", got)
	}
	if len(out.Addrs) != len(out.Members) {
		t.Errorf("address book misaligned: %d addrs for %d members", len(out.Addrs), len(out.Members))
	}
}

func TestReadTelemetryRejects(t *testing.T) {
	cases := []struct{ name, in string }{
		{"future version", `{"version":99,"t":1,"server":0}`},
		{"zero version", `{"t":1,"server":0}`},
		{"negative server", `{"version":1,"t":1,"server":-3}`},
		{"histogram shape", `{"version":1,"server":0,"staleness_bounds":[1,2],"staleness_counts":[1,2]}`},
		{"not json", `nope`},
	}
	for _, c := range cases {
		if _, err := ReadTelemetry(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.in)
		}
	}
}
