package obs

import "fmt"

// UID is a stable causal identifier minted at the origin of a traced
// entity and propagated with it end to end, so events emitted by
// different nodes — and by different runtimes — link into one journey.
// Two entity families share the ID space:
//
//   - client updates get a positive UID minted by the client when the
//     trained update leaves it (UpdateUID);
//   - each copy of a synchronization round's server-model broadcast gets
//     a negative UID derived from the broadcaster, the bid and the copy
//     index (RoundUID).
//
// Zero means "no trace context" — the value untraced legacy messages and
// pre-extension traces carry.
type UID int64

// uidBase packs the coordinates of a UID into one int64. 1e9 leaves room
// for a billion updates per client and a billion sync rounds while keeping
// encoded IDs human-decodable in raw JSONL; copyBase puts a round's copy
// index (up to 922 337) above server IDs below 9999.
const (
	uidBase  = 1_000_000_000
	copyBase = 10_000 * uidBase
)

// UpdateUID mints the causal ID of client c's seq-th update (1-based).
func UpdateUID(client int, seq int64) UID {
	return UID(int64(client+1)*uidBase + seq)
}

// RoundUID mints the causal ID of copy c of server's model broadcast in
// synchronization round bid: copy 0 enters the round (and names its token
// hop), copy n is the holder's n-th SyncRetry re-broadcast.
func RoundUID(server, bid, c int) UID {
	return -UID(int64(c)*copyBase + int64(server+1)*uidBase + int64(bid))
}

// Update decodes an update UID into (client, seq); ok is false for
// round UIDs and the zero UID.
func (u UID) Update() (client int, seq int64, ok bool) {
	if u <= 0 {
		return 0, 0, false
	}
	return int(int64(u)/uidBase) - 1, int64(u) % uidBase, true
}

// Round decodes a round UID into (server, bid, copy); ok is false for
// update UIDs and the zero UID.
func (u UID) Round() (server, bid, c int, ok bool) {
	if u >= 0 {
		return 0, 0, 0, false
	}
	v := int64(-u)
	return int(v%copyBase/uidBase) - 1, int(v % uidBase), int(v / copyBase), true
}

// String renders the UID in journey notation: "c17#3" for client 17's
// third update, "s2/sync#5" for server 2's round-5 broadcast, "s2/sync#5.1"
// for its first retry copy, "-" for the zero UID.
func (u UID) String() string {
	if c, seq, ok := u.Update(); ok {
		return fmt.Sprintf("c%d#%d", c, seq)
	}
	if s, bid, c, ok := u.Round(); ok {
		if c > 0 {
			return fmt.Sprintf("s%d/sync#%d.%d", s, bid, c)
		}
		return fmt.Sprintf("s%d/sync#%d", s, bid)
	}
	return "-"
}
