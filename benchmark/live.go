package main

import (
	"fmt"
	"math"
	"net"
	"time"
)

// The live-ring workload: three in-process servers on loopback TCP, one
// client connection each, and a single load generator driving a strict
// closed loop over them.
const (
	ringServers = 3
	ringUpdates = 2400 // per rep of the workload, round-robin over the servers
	// ringHIntra makes a server ask for a sync round about every 100
	// updates it merges; HInter is off.
	ringHIntra = 100
)

// liveClient is the load generator's end of one client connection.
type liveClient struct {
	id         int
	conn       *Conn
	model      *quadModel // this client's optimum on the stub task
	update     []float64
	out, reply Msg
}

// liveRep is one repetition of the closed loop: a fresh ring, the given
// number of updates, the output checks, teardown.
func liveRep(updates int, seed int64, tr *tracer, dry bool) (s *sample, err error) {
	s = newSample()
	start := time.Now()
	task := newQuadTask(seed)
	servers, err := startRing(ringServers, make([]float64, modelDim), ringHIntra)
	if err != nil {
		return nil, err
	}
	clients := make([]*liveClient, 0, ringServers)
	// Teardown, also on the error paths: client connections first, then
	// all servers concurrently.
	defer func() {
		t := time.Now()
		for _, c := range clients {
			_ = c.conn.Close()
		}
		closeServers(servers)
		if s != nil {
			s.vary["live.teardown_s"] = time.Since(t).Seconds()
		}
	}()

	var wire int64
	var wrap func(net.Conn) net.Conn
	if tr != nil {
		wrap = func(c net.Conn) net.Conn { return countingConn{Conn: c, bytes: &wire} }
	}
	for i, srv := range servers {
		conn, err := dialClient(srv.Addr(), i, wrap)
		if err != nil {
			return nil, err
		}
		c := &liveClient{id: i, conn: conn, model: task.model(seed + int64(1000+i)), update: make([]float64, modelDim)}
		clients = append(clients, c)
		// The server answers the hello with its current model.
		if err := conn.RecvInto(&c.reply); err != nil {
			return nil, fmt.Errorf("client %d: first model: %w", i, err)
		}
		if bad := checkReply(&c.reply); bad != "" {
			return nil, fmt.Errorf("client %d: first model: %s", i, bad)
		}
	}
	s.setup = time.Since(start)
	if dry {
		return s, nil
	}
	wireBefore := wire

	rtt := make([]float64, 0, updates)
	send := make([]float64, 0, updates)
	wait := make([]float64, 0, updates)
	var estimated int
	s.cost.time(func() {
		root := tr.begin(tr.rootLayer("loadgen"))
		defer tr.end(root)
		for u := 0; u < updates; u++ {
			c := clients[u%len(clients)]
			// The update is the last reply moved one step toward the
			// client's optimum, at the rate the server asked for.
			c.model.step(c.update, c.reply.Params, 0, modelDim, c.reply.LR)
			if !allFinite(c.update) {
				s.fail(1, "update %d: reply from server %d is not finite", u, c.id)
			}
			newUpdate(&c.out, c.id, c.update, c.reply.Age)
			t0 := time.Now()
			i := tr.begin(lySend)
			err := c.conn.Send(&c.out)
			tr.end(i)
			t1 := time.Now()
			if err == nil {
				i = tr.begin(lyWait)
				err = c.conn.RecvInto(&c.reply)
				tr.end(i)
			}
			t2 := time.Now()
			if err != nil {
				// The loop is closed: without this reply there is no next
				// update, so everything not yet sent has failed too.
				s.fail(updates-u, "update %d: %v", u, err)
				return
			}
			s.updates++
			if bad := checkReply(&c.reply); bad != "" {
				s.fail(updates-u, "update %d: %s", u, bad)
				return
			}
			estimated += msgWireBytes(&c.out) + msgWireBytes(&c.reply)
			rtt = append(rtt, float64(t2.Sub(t0))/1e3)
			send = append(send, float64(t1.Sub(t0))/1e3)
			wait = append(wait, float64(t2.Sub(t1))/1e3)
		}
	})
	if len(rtt) == 0 {
		return s, nil
	}

	rtt, send, wait = sortedCopy(rtt), sortedCopy(send), sortedCopy(wait)
	s.vary["live.rtt_p50_us"] = quantile(rtt, 0.50)
	s.vary["live.rtt_p90_us"] = quantile(rtt, 0.90)
	s.vary["live.rtt_p99_us"] = quantile(rtt, 0.99)
	s.vary["live.rtt_max_us"] = rtt[len(rtt)-1]
	s.vary["transport.send_us"] = quantile(send, 0.50)
	s.vary["live.wait_us"] = quantile(wait, 0.50)
	if tr != nil {
		perUpdate := float64(wire-wireBefore) / float64(s.updates)
		s.vary["transport.wire_bytes_per_update"] = perUpdate
		s.vary["transport.estimate_ratio"] = float64(estimated) / float64(s.updates) / perUpdate
	}
	s.checkRing(task, servers)
	return s, nil
}

// checkReply validates one frame the load generator received. Non-finite
// parameters are caught where the next update is derived from them.
func checkReply(m *Msg) string {
	if m.Kind != kindModelReply {
		return fmt.Sprintf("got a %v frame, want a model reply", m.Kind)
	}
	if len(m.Params) != modelDim {
		return fmt.Sprintf("reply carries %d parameters, want %d", len(m.Params), modelDim)
	}
	return ""
}

// checkRing inspects the servers after the loop: every update sent was
// merged, sync rounds ran, and the models are finite, close to each other
// and closer to the optimum than the zero model they started from.
func (s *sample) checkRing(task *quadTask, servers []*Server) {
	// A reply leaves the server just before it counts the update, so
	// give the last counter a moment to land.
	merged := func() (n int) {
		for _, srv := range servers {
			n += srv.Updates()
		}
		return n
	}
	for deadline := time.Now().Add(2 * time.Second); merged() != s.updates && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := merged(); n != s.updates {
		s.fail(1, "servers merged %d updates, %d were sent", n, s.updates)
	}
	s.exact["sig.updates"] = float64(s.updates)

	syncs := 0
	params := make([][]float64, len(servers))
	mean := make([]float64, modelDim)
	for i, srv := range servers {
		syncs += srv.SyncsTriggered()
		params[i] = srv.Params()
		for j, v := range params[i] {
			mean[j] += v / float64(len(servers))
		}
	}
	s.vary["live.syncs"] = float64(syncs)
	if syncs < 1 {
		s.fail(1, "no sync round in %d updates", s.updates)
	} else {
		s.vary["live.updates_per_sync"] = float64(s.updates) / float64(syncs)
	}
	spread := 0.0
	for i := range params {
		for j := i + 1; j < len(params); j++ {
			var d2 float64
			for k, v := range params[i] {
				d2 += (v - params[j][k]) * (v - params[j][k])
			}
			spread = math.Max(spread, math.Sqrt(d2))
		}
	}
	s.vary["live.model_spread"] = spread
	loss, _ := quadLoss(task.goal, mean)
	first, _ := quadLoss(task.goal, make([]float64, modelDim))
	s.vary["metrics.final_loss"] = loss
	if !isFinite(spread) || !isFinite(loss) || loss >= first {
		s.fail(1, "final models: spread %v, loss %v (zero model %v)", spread, loss, first)
	}
}
