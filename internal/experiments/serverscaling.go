package experiments

import (
	"fmt"
	"strconv"
)

// ServerScalingStudy completes the paper's scalability story: Sec. 5
// promises an evaluation of scaling "with the numbers of clients and
// servers", but only the client dimension gets a table (Tab. 5). Here the
// client population is fixed and the server count varies; more servers
// shorten client-server distances and split the aggregation load, at the
// price of more server-server synchronization traffic.
type ServerScalingStudy struct {
	Target  float64
	Clients int
	Rows    []ServerScalingRow
}

// ServerScalingRow is one server-count configuration.
type ServerScalingRow struct {
	Servers           int
	TimeToTarget      float64 // 0 = not reached
	Updates           int
	ServerServerBytes int
}

// RunServerScalingStudy runs Spyker with 1, 2, 4 and 8 servers over the
// same fixed client population.
func RunServerScalingStudy(scale float64, seed int64) (*ServerScalingStudy, error) {
	const target = 0.92
	setup := baseSetup(population(120, scale, 16), seed)
	setup.SpreadClientRegions = true // clients stay geo-distributed even with 1 server
	setup.TargetAcc = target
	setup.Horizon = 180
	study := &ServerScalingStudy{Target: target, Clients: setup.NumClients}
	var w sweep
	for _, servers := range []int{1, 2, 4, 8} {
		setup.NumServers = servers
		res := w.run("spyker", setup, nil)
		upd, _ := res.Trace.UpdatesToAcc(target)
		study.Rows = append(study.Rows, ServerScalingRow{
			Servers:           servers,
			TimeToTarget:      timeTo(res.Trace, target),
			Updates:           upd,
			ServerServerBytes: res.BytesServerServer,
		})
	}
	return study, w.err
}

// Render prints the study.
func (s *ServerScalingStudy) Render() string {
	t := titled(fmt.Sprintf("=== server-count scaling: %d clients, target %.0f%%%% ===\n", s.Clients, 100*s.Target),
		col{"servers", 8, ""}, col{"t(target)", 12, ""}, col{"updates", 10, ""}, col{"srv-srv bytes", 16, "MB"})
	for _, r := range s.Rows {
		t.row(strconv.Itoa(r.Servers), timeCell(r.TimeToTarget), strconv.Itoa(r.Updates), fixed(mb(r.ServerServerBytes), 2))
	}
	return t.b.String() + "\nmore servers shorten client-server paths and split the aggregation\n" +
		"load, at the cost of more synchronization traffic.\n"
}
