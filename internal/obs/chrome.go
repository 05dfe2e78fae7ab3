package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Only the fields the viewers need are emitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`  // instant-event scope
	ID    string         `json:"id,omitempty"` // flow-event binding ID
	Cat   string         `json:"cat,omitempty"`
	BP    string         `json:"bp,omitempty"` // flow binding point
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace converts a protocol event trace into Chrome
// trace_event JSON (object form), so a run opens directly in
// chrome://tracing or Perfetto. Mapping:
//
//   - every node becomes one process (pid = node ID);
//   - SyncStart/SyncEnd become duration slices ("sync #bid") on the
//     node's timeline;
//   - ClientUpdate and ServerAgg additionally drive an "age" counter
//     track per node, giving the per-server model-age timeline;
//   - everything else becomes thread-scoped instant events carrying its
//     payload in args;
//   - every update journey BuildLineage rebuilds (see lineage.go)
//     becomes a flow: a flow-start at
//     the origin merge, flow steps at each server its influence reaches,
//     so chrome://tracing draws arrows from server to server along the
//     synchronization rounds that carried the update.
//
// Event times (seconds, virtual or wall) map to microseconds.
func WriteChromeTrace(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ce chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ce)
		if err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}

	for i := range events {
		e := &events[i]
		ts := e.Time * 1e6
		switch e.Kind {
		case KindSyncStart:
			if err := emit(chromeEvent{
				Name: fmt.Sprintf("sync #%d", e.Bid), Phase: "B",
				TS: ts, PID: e.Node, TID: e.Node,
				Args: map[string]any{"bid": e.Bid, "role": e.Note},
			}); err != nil {
				return err
			}
		case KindSyncEnd:
			if err := emit(chromeEvent{
				Name: fmt.Sprintf("sync #%d", e.Bid), Phase: "E",
				TS: ts, PID: e.Node, TID: e.Node,
			}); err != nil {
				return err
			}
		case KindClientUpdate, KindServerAgg:
			if err := emit(chromeEvent{
				Name: e.Kind.String(), Phase: "i",
				TS: ts, PID: e.Node, TID: e.Node, Scope: "t",
				Args: map[string]any{"peer": e.Peer, "age": e.Age, "stale": e.Stale},
			}); err != nil {
				return err
			}
			if err := emit(chromeEvent{
				Name: "age", Phase: "C",
				TS: ts, PID: e.Node, TID: e.Node,
				Args: map[string]any{"age": e.Age},
			}); err != nil {
				return err
			}
		default:
			args := map[string]any{"peer": e.Peer}
			if e.Bytes != 0 {
				args["bytes"] = e.Bytes
			}
			if e.Bid != 0 {
				args["bid"] = e.Bid
			}
			if e.UID != 0 {
				args["uid"] = e.UID.String()
			}
			if err := emit(chromeEvent{
				Name: e.Kind.String(), Phase: "i",
				TS: ts, PID: e.Node, TID: e.Node, Scope: "t",
				Args: args,
			}); err != nil {
				return err
			}
		}
	}

	// Flow arrows for every reconstructable update journey: start at the
	// origin merge, one step per server reached, the last hop ends the
	// flow. The binding ID keys all segments of one journey together.
	lin := BuildLineage(events)
	for _, u := range lin.Updates {
		if len(u.Arrivals) == 0 {
			continue
		}
		name := "update " + u.Name()
		id := fmt.Sprintf("%d:%d", u.Origin, u.Seq)
		if err := emit(chromeEvent{
			Name: name, Phase: "s", Cat: "provenance", ID: id,
			TS: u.Merged * 1e6, PID: u.Origin, TID: u.Origin,
			Args: map[string]any{"client": u.Client},
		}); err != nil {
			return err
		}
		for i, a := range u.Arrivals {
			phase := "t"
			ce := chromeEvent{
				Name: name, Phase: phase, Cat: "provenance", ID: id,
				TS: a.Time * 1e6, PID: a.Server, TID: a.Server,
				Args: map[string]any{"via": a.Via, "bid": a.Bid},
			}
			if i == len(u.Arrivals)-1 {
				ce.Phase = "f"
				ce.BP = "e"
			}
			if err := emit(ce); err != nil {
				return err
			}
		}
	}

	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
