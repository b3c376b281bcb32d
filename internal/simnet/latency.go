package simnet

import (
	"math/rand"
	"time"
)

// LatencyModel computes one-way message delay, including transmission time
// for the message size.
type LatencyModel interface {
	Delay(from, to NodeID, size int, rng *rand.Rand) time.Duration
}

// Uniform is a flat base latency with uniform jitter and a shared link
// bandwidth. It models the paper's in-house cluster when configured with
// LAN numbers.
type Uniform struct {
	Base      time.Duration
	Jitter    time.Duration // delay is Base + U[0,Jitter)
	Bandwidth int64         // bytes/second; 0 means infinite
}

// Delay implements LatencyModel.
func (u Uniform) Delay(_, _ NodeID, size int, rng *rand.Rand) time.Duration {
	d := u.Base
	if u.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(u.Jitter)))
	}
	if u.Bandwidth > 0 {
		d += time.Duration(float64(size) / float64(u.Bandwidth) * float64(time.Second))
	}
	return d
}

// LAN returns the latency model for the paper's local cluster: 100 servers
// on a datacenter network (~0.2 ms RTT, 1 Gbps).
func LAN() Uniform {
	return Uniform{Base: 100 * time.Microsecond, Jitter: 100 * time.Microsecond, Bandwidth: 125_000_000}
}

// ThrottledLAN returns the constrained network used by the paper's PoET
// experiments (§C.1): 50 Mbps links with 100 ms imposed latency.
func ThrottledLAN() Uniform {
	return Uniform{Base: 100 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 6_250_000}
}

// RegionNames are the 8 GCP regions of the paper's Table 3, in matrix order.
var RegionNames = []string{
	"us-west1-b", "us-west2-a", "us-east1-b", "us-east4-b",
	"asia-east1-b", "asia-southeast1-b", "europe-west1-b", "europe-west2-a",
}

// gcpRTT is the paper's Table 3 inter-region latency matrix in milliseconds
// (we treat the published numbers as one-way delays, as the paper's
// propagation-delay measurements do).
var gcpRTT = [8][8]float64{
	{0.0, 24.7, 66.7, 59.0, 120.2, 150.8, 138.9, 132.7},
	{24.7, 0.0, 62.9, 60.5, 129.5, 160.5, 140.4, 136.1},
	{66.7, 62.9, 0.0, 12.7, 183.8, 216.6, 93.1, 88.2},
	{59.1, 60.4, 12.7, 0.0, 176.6, 208.4, 81.9, 75.6},
	{118.7, 129.5, 184.9, 176.6, 0.0, 50.5, 255.5, 252.5},
	{150.8, 160.5, 216.7, 208.3, 50.6, 0.0, 288.8, 283.8},
	{138.9, 140.5, 93.2, 81.8, 255.7, 288.7, 0.0, 7.1},
	{132.1, 134.9, 88.1, 76.6, 252.1, 283.9, 7.1, 0.0},
}

// GCPMatrix returns a copy of the Table 3 latency matrix in milliseconds.
func GCPMatrix() [8][8]float64 { return gcpRTT }

// Regional models a multi-region deployment: nodes are assigned to regions
// and pairwise delay comes from the region matrix plus intra-region base
// latency, jitter and bandwidth.
type Regional struct {
	// RegionOf maps a node to its region index. Nodes not present are in
	// region 0.
	RegionOf map[NodeID]int
	// Matrix holds inter-region one-way delays.
	Matrix [8][8]float64 // milliseconds
	// Regions restricts the deployment to the first Regions regions.
	Regions int
	// Intra is the delay between nodes in the same region.
	Intra time.Duration
	// JitterFrac adds U[0,JitterFrac) of the base delay as jitter.
	JitterFrac float64
	// Bandwidth in bytes/second; 0 means infinite.
	Bandwidth int64
}

// GCP returns a Regional model over the first `regions` regions of Table 3
// with nodes spread round-robin.
func GCP(regions int, nodes []NodeID) *Regional {
	if regions < 1 || regions > 8 {
		panic("simnet: GCP supports 1..8 regions")
	}
	m := &Regional{
		RegionOf:   make(map[NodeID]int, len(nodes)),
		Matrix:     gcpRTT,
		Regions:    regions,
		Intra:      500 * time.Microsecond,
		JitterFrac: 0.05,
		Bandwidth:  62_500_000, // 500 Mbps cloud instance egress
	}
	for i, id := range nodes {
		m.RegionOf[id] = i % regions
	}
	return m
}

// Delay implements LatencyModel.
func (r *Regional) Delay(from, to NodeID, size int, rng *rand.Rand) time.Duration {
	ra, rb := r.RegionOf[from], r.RegionOf[to]
	var d time.Duration
	if ra == rb {
		d = r.Intra
	} else {
		d = time.Duration(r.Matrix[ra][rb] * float64(time.Millisecond))
	}
	if r.JitterFrac > 0 && d > 0 {
		d += time.Duration(rng.Int63n(int64(float64(d)*r.JitterFrac) + 1))
	}
	if r.Bandwidth > 0 {
		d += time.Duration(float64(size) / float64(r.Bandwidth) * float64(time.Second))
	}
	return d
}

// MaxDelay reports the largest pairwise base delay in the deployment; shard
// formation uses it to derive the synchrony bound Δ (§5.1: the paper sets
// Δ to 3x the measured maximum propagation delay).
func (r *Regional) MaxDelay() time.Duration {
	max := r.Intra
	for a := 0; a < r.Regions; a++ {
		for b := 0; b < r.Regions; b++ {
			d := time.Duration(r.Matrix[a][b] * float64(time.Millisecond))
			if d > max {
				max = d
			}
		}
	}
	return max
}
