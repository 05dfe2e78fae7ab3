package geo

// NearestBalanced places each client (given by its region) on its
// nearest server by modeled latency, breaking latency ties toward the
// least-loaded server. It is the shared placement heuristic of the
// geo-spread client assignment (internal/experiments) and of elastic
// client re-homing after a server leaves the ring (internal/spyker).
//
// servers lists the candidate server IDs (any stable IDs, not
// necessarily contiguous), serverRegion maps an ID to its region, and
// load carries each server's pre-existing client count — the function
// increments it as it assigns, so balancing accounts for both the
// existing population and the clients placed during this call. A nil
// load starts every server at zero. Returns one server ID per region
// entry (-1 if servers is empty).
func NearestBalanced(regions []Region, servers []int, serverRegion func(int) Region, latency LatencyFunc, load map[int]int) []int {
	out := make([]int, len(regions))
	if len(servers) == 0 {
		for i := range out {
			out[i] = -1
		}
		return out
	}
	if load == nil {
		load = make(map[int]int, len(servers))
	}
	for i, r := range regions {
		best := servers[0]
		for _, si := range servers[1:] {
			ls := latency(r, serverRegion(si))
			lb := latency(r, serverRegion(best))
			if ls < lb-1e-12 || (ls < lb+1e-12 && load[si] < load[best]) {
				best = si
			}
		}
		out[i] = best
		load[best]++
	}
	return out
}
