package main

import (
	"fmt"
	"time"
)

// A probe sample lasts at least probeFloor; a probe reports the median of
// probeSamples of them.
const (
	probeFloor   = 100 * time.Millisecond
	probeSamples = 5
)

// timeProbe calibrates p's iteration count until one sample lasts
// probeFloor, then returns the median cost of one unit operation in p's
// reporting unit.
func timeProbe(p probe) float64 {
	n := 1
	for {
		start := time.Now()
		p.run(n)
		if took := time.Since(start); took >= probeFloor {
			break
		} else if took < probeFloor/100 {
			n *= 10
		} else {
			n = int(float64(n)*float64(probeFloor)/float64(took)*1.1) + 1
		}
	}
	costs := make([]float64, probeSamples)
	for i := range costs {
		start := time.Now()
		p.run(n)
		costs[i] = time.Since(start).Seconds() / (float64(n) * p.ops) / p.unit
	}
	return median(costs)
}

// runProbes measures the layers below the runtimes by calling them
// directly, and the transport alone by echoing a model-sized frame.
func (rp *report) runProbes(seed int64) error {
	probes, err := layerProbes(seed)
	if err != nil {
		return err
	}
	conn, stop, err := echoPair()
	if err != nil {
		return err
	}
	defer stop()
	var out, in Msg
	var echoErr error
	newUpdate(&out, 0, make([]float64, modelDim), 0)
	probes = append(probes, probe{"transport.echo_rtt_us", 1, 1e-6, func(n int) {
		for i := 0; i < n && echoErr == nil; i++ {
			if echoErr = conn.Send(&out); echoErr == nil {
				echoErr = conn.RecvInto(&in)
			}
		}
	}})
	for _, p := range probes {
		rp.values[p.name] = timeProbe(p)
	}
	if echoErr != nil {
		return fmt.Errorf("echo probe: %w", echoErr)
	}
	if p50 := rp.values["live.rtt_p50_us"]; p50 > 0 {
		rp.values["live.server_residual_us"] = p50 - rp.values["transport.echo_rtt_us"]
	}
	return nil
}
