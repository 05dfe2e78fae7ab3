package geo

import (
	"reflect"
	"testing"
)

func TestNearestBalanced(t *testing.T) {
	// byIndex homes server si in Regions[si], the layout of contiguous IDs.
	byIndex := func(si int) Region { return Regions[si] }
	cases := []struct {
		name         string
		regions      []Region
		servers      []int
		serverRegion func(int) Region
		latency      LatencyFunc // nil: AWSLatency
		load         map[int]int
		want         []int
		wantLoad     map[int]int // nil: not checked
	}{
		{
			// Load only breaks ties: the Paris server stays nearest however
			// loaded it is, and a client with no server in its region goes
			// to the lowest-latency one (HongKong -> Sydney in Tab. 4).
			name:    "nearest by latency",
			regions: []Region{Paris, HongKong, California},
			servers: []int{1, 2, 3}, serverRegion: byIndex,
			load:     map[int]int{1: 5},
			want:     []int{1, 2, 3},
			wantLoad: map[int]int{1: 6, 2: 1, 3: 1},
		},
		{
			// The latency function decides, not the region: here Paris
			// clients are nearer to Sydney than to Paris.
			name:    "modelled latency, not region",
			regions: []Region{Paris},
			servers: []int{1, 2}, serverRegion: byIndex,
			latency: func(src, dst Region) float64 {
				if src == Paris && dst == Sydney {
					return 0
				}
				return AWSLatency(src, dst)
			},
			want: []int{2},
		},
		{
			// Two servers share a region. The first client goes to the one
			// with fewer existing clients; then the loads are equal and the
			// tie keeps the earlier server; then the third client counts the
			// two placed before it.
			name:    "tie goes to least loaded",
			regions: []Region{Paris, Paris, Paris},
			servers: []int{0, 1},
			serverRegion: func(int) Region {
				return Paris
			},
			load:     map[int]int{0: 1},
			want:     []int{1, 0, 1},
			wantLoad: map[int]int{0: 2, 1: 2},
		},
		{
			name:    "nil load",
			regions: []Region{Sydney, Sydney, Sydney, Sydney},
			servers: []int{0, 1},
			serverRegion: func(int) Region {
				return Sydney
			},
			want: []int{0, 1, 0, 1},
		},
		{
			// Stable IDs after a leave: 7, 3, 12 and 20, with load keyed by
			// those IDs.
			name:    "non-contiguous IDs",
			regions: []Region{Paris, California, Sydney, Paris},
			servers: []int{7, 3, 12, 20},
			serverRegion: func(si int) Region {
				return map[int]Region{7: Sydney, 3: Paris, 12: California, 20: Paris}[si]
			},
			load:     map[int]int{3: 1},
			want:     []int{20, 12, 7, 3},
			wantLoad: map[int]int{3: 2, 7: 1, 12: 1, 20: 1},
		},
		{
			name:    "no servers",
			regions: []Region{Paris, Sydney},
			servers: nil, serverRegion: byIndex,
			load:     map[int]int{},
			want:     []int{-1, -1},
			wantLoad: map[int]int{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			latency := tc.latency
			if latency == nil {
				latency = AWSLatency
			}
			got := NearestBalanced(tc.regions, tc.servers, tc.serverRegion, latency, tc.load)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("placement = %v, want %v", got, tc.want)
			}
			if tc.wantLoad != nil && !reflect.DeepEqual(tc.load, tc.wantLoad) {
				t.Errorf("load after = %v, want %v", tc.load, tc.wantLoad)
			}
		})
	}
}
