package obs

import "fmt"

// UID is a stable causal identifier minted at the origin of a traced
// entity and propagated with it end to end, so events emitted by
// different nodes — and by different runtimes — link into one journey.
// Two entity families share the ID space:
//
//   - client updates get a positive UID minted by the client when the
//     trained update leaves it (UpdateUID);
//   - server-model broadcasts of a synchronization round get a negative
//     UID derived from the broadcaster and the round's bid (RoundUID).
//
// Zero means "no trace context" — the value untraced legacy messages and
// pre-extension traces carry.
type UID int64

// uidBase packs the two coordinates of a UID into one int64. 1e9 leaves
// room for a billion updates per client and a billion sync rounds while
// keeping encoded IDs human-decodable in raw JSONL.
const uidBase = 1_000_000_000

// UpdateUID mints the causal ID of client c's seq-th update (1-based).
func UpdateUID(client int, seq int64) UID {
	return UID(int64(client+1)*uidBase + seq)
}

// RoundUID mints the causal ID of the model broadcast server s sends in
// synchronization round bid.
func RoundUID(server, bid int) UID {
	return -UID(int64(server+1)*uidBase + int64(bid))
}

// Update decodes an update UID into (client, seq); ok is false for
// round UIDs and the zero UID.
func (u UID) Update() (client int, seq int64, ok bool) {
	if u <= 0 {
		return 0, 0, false
	}
	return int(int64(u)/uidBase) - 1, int64(u) % uidBase, true
}

// Round decodes a round UID into (server, bid); ok is false for update
// UIDs and the zero UID.
func (u UID) Round() (server, bid int, ok bool) {
	if u >= 0 {
		return 0, 0, false
	}
	v := int64(-u)
	return int(v/uidBase) - 1, int(v % uidBase), true
}

// String renders the UID in journey notation: "c17#3" for client 17's
// third update, "s2/sync#5" for server 2's round-5 broadcast, "-" for
// the zero UID.
func (u UID) String() string {
	if c, seq, ok := u.Update(); ok {
		return fmt.Sprintf("c%d#%d", c, seq)
	}
	if s, bid, ok := u.Round(); ok {
		return fmt.Sprintf("s%d/sync#%d", s, bid)
	}
	return "-"
}
