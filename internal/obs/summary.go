package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// AgePoint is one sample of a server's model-age timeline.
type AgePoint struct {
	Time float64
	Age  float64
}

// RTTStats summarizes the token ring round-trip times observed at one
// server (the gaps between its consecutive token forwards).
type RTTStats struct {
	Count    int
	Min, Max float64
	Mean     float64
}

// Summary is the digest cmd/spyker-trace prints: per-kind counts, the
// staleness distribution of aggregated client updates, per-server age
// timelines, token round-trip times, and traffic totals.
type Summary struct {
	Events    int
	Span      [2]float64 // first/last event time
	Counts    map[EventKind]int
	Servers   []int // node IDs that aggregated updates or models, sorted
	AgeSeries map[int][]AgePoint

	StalenessBounds []float64
	StalenessCounts []int64 // len(bounds)+1, last = overflow
	StalenessMean   float64
	StalenessMax    float64

	TokenRTT map[int]RTTStats // per forwarding node

	// Message-event byte totals: exact frame octets in a live trace,
	// modelled sizes in a simulated one.
	BytesSent, BytesRecv int64
	SyncRounds           int // distinct (node,bid) sync participations

	// Incidents is the fault/recovery/membership timeline: every
	// KindFault, KindTokenRegen, KindTokenRetire, KindMembership, and
	// KindReject event in time order.
	Incidents  []Incident
	EpochSpan  [2]int // lowest/highest membership epoch adopted (when any)
	EpochMoves int    // KindMembership events

	// Audit verdict totals (KindAudit events): raise/reassert vs clear
	// transitions, and the sorted IDs of every client ever flagged.
	AuditRaises  int
	AuditClears  int
	AuditClients []int
}

// Incident is one entry of the fault/recovery/membership timeline.
type Incident struct {
	Time float64
	Kind EventKind
	Node int
	Bid  int    // token bid or membership epoch, kind-dependent
	Note string // "crash", "restart", "stale-incoming", "admit", ...
}

// Summarize digests a trace. Events need not be sorted; they are ordered
// by time first (stable on the input order for ties, which preserves the
// emission order of equal-timestamp simulator events).
func Summarize(events []Event) *Summary {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	s := &Summary{
		Events:          len(evs),
		Counts:          make(map[EventKind]int),
		AgeSeries:       make(map[int][]AgePoint),
		StalenessBounds: StalenessBuckets,
		StalenessCounts: make([]int64, len(StalenessBuckets)+1),
		TokenRTT:        make(map[int]RTTStats),
	}
	if len(evs) > 0 {
		s.Span = [2]float64{evs[0].Time, evs[len(evs)-1].Time}
	}

	lastPass := make(map[int]float64)
	rttSum := make(map[int]float64)
	flaggedClients := make(map[int]bool)
	var staleSum float64
	var staleN int
	for i := range evs {
		e := &evs[i]
		s.Counts[e.Kind]++
		switch e.Kind {
		case KindClientUpdate, KindServerAgg:
			s.AgeSeries[e.Node] = append(s.AgeSeries[e.Node], AgePoint{Time: e.Time, Age: e.Age})
			if e.Kind == KindClientUpdate {
				s.StalenessCounts[sort.SearchFloat64s(s.StalenessBounds, e.Stale)]++
				staleSum += e.Stale
				staleN++
				if e.Stale > s.StalenessMax {
					s.StalenessMax = e.Stale
				}
			}
		case KindTokenPass:
			if prev, ok := lastPass[e.Node]; ok {
				rtt := e.Time - prev
				st := s.TokenRTT[e.Node]
				if st.Count == 0 || rtt < st.Min {
					st.Min = rtt
				}
				if rtt > st.Max {
					st.Max = rtt
				}
				st.Count++
				rttSum[e.Node] += rtt
				s.TokenRTT[e.Node] = st
			}
			lastPass[e.Node] = e.Time
		case KindSyncStart:
			s.SyncRounds++
		case KindMsgSend:
			s.BytesSent += int64(e.Bytes)
		case KindMsgRecv:
			s.BytesRecv += int64(e.Bytes)
		case KindAudit:
			// "clear:" is audit.ClearPrefix; the audit package imports obs,
			// so the prefix is matched literally here.
			if strings.HasPrefix(e.Note, "clear:") {
				s.AuditClears++
			} else {
				s.AuditRaises++
				flaggedClients[e.Peer] = true
			}
		case KindFault, KindTokenRegen, KindTokenRetire, KindMembership, KindReject:
			s.Incidents = append(s.Incidents, Incident{
				Time: e.Time, Kind: e.Kind, Node: e.Node, Bid: e.Bid, Note: e.Note,
			})
			if e.Kind == KindMembership {
				if s.EpochMoves == 0 || e.Bid < s.EpochSpan[0] {
					s.EpochSpan[0] = e.Bid
				}
				if s.EpochMoves == 0 || e.Bid > s.EpochSpan[1] {
					s.EpochSpan[1] = e.Bid
				}
				s.EpochMoves++
			}
		}
	}
	if staleN > 0 {
		s.StalenessMean = staleSum / float64(staleN)
	}
	for node, st := range s.TokenRTT {
		st.Mean = rttSum[node] / float64(st.Count)
		s.TokenRTT[node] = st
	}
	for node := range s.AgeSeries {
		s.Servers = append(s.Servers, node)
	}
	sort.Ints(s.Servers)
	for c := range flaggedClients {
		s.AuditClients = append(s.AuditClients, c)
	}
	sort.Ints(s.AuditClients)
	return s
}

// downsample picks at most n points spread evenly over the series,
// always keeping the first and last.
func downsample(pts []AgePoint, n int) []AgePoint {
	if len(pts) <= n || n < 2 {
		return pts
	}
	out := make([]AgePoint, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(pts) - 1) / (n - 1)
		out = append(out, pts[idx])
	}
	return out
}

// WriteText renders the summary for terminals.
func (s *Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events over [%.3fs, %.3fs]\n", s.Events, s.Span[0], s.Span[1])

	kinds := make([]EventKind, 0, len(s.Counts))
	for k := range s.Counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(w, "  %-14s %8d\n", k, s.Counts[k])
	}

	if n := s.Counts[KindClientUpdate]; n > 0 {
		fmt.Fprintf(w, "\nstaleness of aggregated client updates (mean %.2f, max %.2f):\n",
			s.StalenessMean, s.StalenessMax)
		var total, maxC int64
		for _, c := range s.StalenessCounts {
			total += c
			if c > maxC {
				maxC = c
			}
		}
		for i, c := range s.StalenessCounts {
			if c == 0 {
				continue
			}
			label := fmt.Sprintf("> %g", s.StalenessBounds[len(s.StalenessBounds)-1])
			if i < len(s.StalenessBounds) {
				label = fmt.Sprintf("<= %g", s.StalenessBounds[i])
			}
			bar := strings.Repeat("#", int(math.Ceil(40*float64(c)/float64(maxC))))
			fmt.Fprintf(w, "  %8s %8d (%5.1f%%) %s\n", label, c, 100*float64(c)/float64(total), bar)
		}
	}

	if len(s.Servers) > 0 {
		fmt.Fprintf(w, "\nper-server model-age timeline:\n")
		for _, node := range s.Servers {
			pts := downsample(s.AgeSeries[node], 8)
			fmt.Fprintf(w, "  node %d:", node)
			for _, p := range pts {
				fmt.Fprintf(w, "  %.1fs→%.1f", p.Time, p.Age)
			}
			fmt.Fprintln(w)
		}
	}

	if len(s.TokenRTT) > 0 {
		fmt.Fprintf(w, "\ntoken ring round-trips (per forwarding server):\n")
		nodes := make([]int, 0, len(s.TokenRTT))
		for n := range s.TokenRTT {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			st := s.TokenRTT[n]
			fmt.Fprintf(w, "  node %d: %d round-trips, mean %.3fs, min %.3fs, max %.3fs\n",
				n, st.Count, st.Mean, st.Min, st.Max)
		}
	}

	if len(s.Incidents) > 0 {
		fmt.Fprintf(w, "\nfaults, recovery, and membership (%d incidents):\n", len(s.Incidents))
		const maxLines = 24
		shown := s.Incidents
		if len(shown) > maxLines {
			shown = shown[:maxLines]
		}
		for _, inc := range shown {
			extra := inc.Note
			switch inc.Kind {
			case KindTokenRegen, KindTokenRetire:
				if extra != "" {
					extra = fmt.Sprintf("bid %d (%s)", inc.Bid, extra)
				} else {
					extra = fmt.Sprintf("bid %d", inc.Bid)
				}
			case KindMembership:
				extra = fmt.Sprintf("epoch %d (%s)", inc.Bid, inc.Note)
			}
			fmt.Fprintf(w, "  %9.3fs %-13s node %-3d %s\n", inc.Time, inc.Kind, inc.Node, extra)
		}
		if n := len(s.Incidents) - len(shown); n > 0 {
			fmt.Fprintf(w, "  ... and %d more\n", n)
		}
		if s.EpochMoves > 0 {
			fmt.Fprintf(w, "  membership epochs %d -> %d across %d adoption events\n",
				s.EpochSpan[0], s.EpochSpan[1], s.EpochMoves)
		}
	}

	if s.AuditRaises > 0 || s.AuditClears > 0 {
		clients := make([]string, 0, len(s.AuditClients))
		for _, c := range s.AuditClients {
			clients = append(clients, fmt.Sprintf("c%d", c))
		}
		fmt.Fprintf(w, "\naudit verdicts: %d raised, %d cleared, %d clients flagged (%s) — see -mode audit\n",
			s.AuditRaises, s.AuditClears, len(s.AuditClients), strings.Join(clients, ","))
	}

	if s.BytesSent > 0 || s.BytesRecv > 0 {
		fmt.Fprintf(w, "\ntraffic: %.2f MB sent, %.2f MB received\n",
			float64(s.BytesSent)/1e6, float64(s.BytesRecv)/1e6)
	}
	if s.SyncRounds > 0 {
		fmt.Fprintf(w, "sync participations: %d\n", s.SyncRounds)
	}
}
