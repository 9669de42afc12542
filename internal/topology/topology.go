// Package topology synthesizes and represents industrial WSAN testbeds.
//
// The paper evaluates on per-channel PRR link statistics collected from two
// physical deployments: the 80-node Indriya testbed (3 storeys, NUS) and the
// 60-node WUSTL testbed (3 floors). Those traces are not publicly available,
// so this package generates statistically equivalent topologies: nodes placed
// on the floors of a synthetic building, link gains derived from a
// log-distance path-loss model with per-link lognormal shadowing,
// frequency-selective per-channel fading, and per-node hardware offsets, and
// per-channel PRR matrices computed through the same CC2420 SINR→PRR curve
// the network simulator uses.
//
// From a testbed the package builds the two graphs of Sec. IV-B:
//
//   - the communication graph G_c: edge (u,v) iff PRR ≥ PRR_t in BOTH
//     directions on ALL channels in use (links hop over every channel, so
//     they must be reliable on each), and
//   - the channel-reuse graph G_R: edge (u,v) iff PRR > 0 in ANY direction on
//     ANY channel in use — i.e. the nodes can hear each other at all, which
//     is what matters for interference.
package topology

import (
	"fmt"
	"math"

	"wsan/internal/graph"
	"wsan/internal/radio"
)

// NumChannels is the number of IEEE 802.15.4 channels in the 2.4 GHz band.
// Channels are addressed by index 0..15 throughout; index i is IEEE channel
// 11+i (so the paper's "channels 11–14" are indices 0–3).
const NumChannels = 16

// IEEEChannel converts a channel index to its IEEE 802.15.4 channel number.
func IEEEChannel(idx int) int { return 11 + idx }

// ChannelIndex converts an IEEE 802.15.4 channel number (11..26) to an index.
func ChannelIndex(ieee int) int { return ieee - 11 }

// Channels returns the first n channel indices, the conventional "use n
// channels" selection in the paper's experiments.
func Channels(n int) []int {
	if n < 0 {
		n = 0
	}
	if n > NumChannels {
		n = NumChannels
	}
	chs := make([]int, n)
	for i := range chs {
		chs[i] = i
	}
	return chs
}

// Node is one field device with a 3D position inside the building.
type Node struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Z     float64 `json:"z"`
	Floor int     `json:"floor"`
}

// MaxNodes is the largest testbed Generate, Custom and Decode build. A
// testbed's link tables grow with the square of its node count: at the cap,
// a decoded testbed's dense gain and PRR matrices take 64 MiB, and the
// check runs before they are allocated, so a small document cannot demand
// an unbounded allocation. The paper's testbeds have 60 and 80 nodes.
const MaxNodes = 512

// NodeLimitError reports a testbed with more than MaxNodes nodes.
type NodeLimitError struct {
	// Nodes is the node count asked for.
	Nodes int
}

func (e *NodeLimitError) Error() string {
	return fmt.Sprintf("%d nodes exceeds the limit of %d", e.Nodes, MaxNodes)
}

// Testbed is a set of nodes plus the measured (here: synthesized) mean link
// gain and PRR on every channel for every ordered node pair. It is the input
// the WirelessHART network manager works from.
//
// Gains and PRRs each have two layouts, chosen by the constructor and
// invisible behind GainDBm and PRR. Custom and Decode take arbitrary gains
// and keep them dense; Generate keeps only what its model draws.
type Testbed struct {
	Name  string
	Nodes []Node

	// gain[(u*n+v)*16 + ch] is the mean received power in dBm at v when u
	// transmits on channel index ch at DefaultTxPowerDBm (dense layout).
	gain []float64
	// Compact layout of a generated testbed: pairGain[pairIndex(u,v)*16 +
	// ch] is (Tx − loss) − chFade, the part of the gain both directions of
	// the pair share, and the gain is (pairGain + txOff[u]) + rxOff[v]: the
	// generator's own summation order, so the value is bit-exact.
	pairGain     []float64
	txOff, rxOff []float64

	// The interference-free PRR as neighbor-discovery probing would
	// measure it, laid out like gain: either dense in prr, or as
	// levels[prrCode[(u*n+v)*16 + ch]], codes into the survey's step table.
	prr     []float64
	prrCode []uint8
	levels  []float64
}

// NumNodes returns the number of field devices.
func (tb *Testbed) NumNodes() int { return len(tb.Nodes) }

func (tb *Testbed) index(u, v, ch int) int {
	n := len(tb.Nodes)
	return (u*n+v)*NumChannels + ch
}

// pairIndex numbers the unordered pair {u, v}, u != v, in row order of the
// upper triangle.
func (tb *Testbed) pairIndex(u, v int) int {
	if u > v {
		u, v = v, u
	}
	return u*(2*len(tb.Nodes)-u-1)/2 + v - u - 1
}

func (tb *Testbed) inRange(u, v, ch int) bool {
	n := len(tb.Nodes)
	return u >= 0 && u < n && v >= 0 && v < n && ch >= 0 && ch < NumChannels
}

// PRR returns the interference-free packet reception ratio of the directed
// link u→v on the given channel index, in [0,1]. Out-of-range arguments and
// u==v return 0.
func (tb *Testbed) PRR(u, v, ch int) float64 {
	if !tb.inRange(u, v, ch) || u == v {
		return 0
	}
	if tb.prr != nil {
		return tb.prr[tb.index(u, v, ch)]
	}
	return tb.levels[tb.prrCode[tb.index(u, v, ch)]]
}

// GainDBm returns the mean received power in dBm at v when u transmits on
// the given channel index at the default transmit power. Out-of-range
// arguments and u==v return -Inf.
func (tb *Testbed) GainDBm(u, v, ch int) float64 {
	if !tb.inRange(u, v, ch) || u == v {
		return math.Inf(-1)
	}
	if tb.gain != nil {
		return tb.gain[tb.index(u, v, ch)]
	}
	return tb.pairGain[tb.pairIndex(u, v)*NumChannels+ch] + tb.txOff[u] + tb.rxOff[v]
}

// CommGraph builds the communication graph G_c over the given channel
// indices: an undirected edge (u,v) exists iff PRR(u→v) ≥ prrT and
// PRR(v→u) ≥ prrT on every listed channel. It returns an error for an empty
// or invalid channel list.
func (tb *Testbed) CommGraph(channels []int, prrT float64) (*graph.Graph, error) {
	if err := tb.checkChannels(channels); err != nil {
		return nil, err
	}
	n := len(tb.Nodes)
	g := graph.New(n)
	for u := 0; u < n; u++ {
	next:
		for v := u + 1; v < n; v++ {
			for _, ch := range channels {
				if tb.PRR(u, v, ch) < prrT || tb.PRR(v, u, ch) < prrT {
					continue next
				}
			}
			if err := g.AddEdge(u, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// ReuseGraph builds the channel-reuse graph G_R over the given channel
// indices: an undirected edge (u,v) exists iff PRR > 0 in any direction on
// any listed channel.
func (tb *Testbed) ReuseGraph(channels []int) (*graph.Graph, error) {
	if err := tb.checkChannels(channels); err != nil {
		return nil, err
	}
	n := len(tb.Nodes)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			for _, ch := range channels {
				if tb.PRR(u, v, ch) > 0 || tb.PRR(v, u, ch) > 0 {
					if err := g.AddEdge(u, v); err != nil {
						return nil, err
					}
					break
				}
			}
		}
	}
	return g, nil
}

func (tb *Testbed) checkChannels(channels []int) error {
	if len(channels) == 0 {
		return fmt.Errorf("testbed %s: empty channel list", tb.Name)
	}
	for _, ch := range channels {
		if ch < 0 || ch >= NumChannels {
			return fmt.Errorf("testbed %s: channel index %d out of [0,%d)", tb.Name, ch, NumChannels)
		}
	}
	return nil
}

// AccessPoints returns k access-point nodes: high-degree nodes ("nodes with
// a high number of neighbors", Sec. VII) chosen with spatial diversity —
// each subsequent AP is the highest-degree node at least minAPSeparation
// hops from every already-chosen AP, so that the wired backbone relieves
// more than one radio neighborhood. If no sufficiently separated node
// exists, the separation requirement is relaxed one hop at a time.
func AccessPoints(g *graph.Graph, k int) []int {
	n := g.Len()
	if k > n {
		k = n
	}
	hop := g.AllPairsHop()
	aps := make([]int, 0, k)
	used := make([]bool, n)
	pick := func(minSep int) int {
		best, bestDeg := -1, -1
		for id := 0; id < n; id++ {
			if used[id] {
				continue
			}
			farEnough := true
			for _, ap := range aps {
				if int(hop.Dist(id, ap)) < minSep {
					farEnough = false
					break
				}
			}
			if farEnough && g.Degree(id) > bestDeg {
				best, bestDeg = id, g.Degree(id)
			}
		}
		return best
	}
	for len(aps) < k {
		best := -1
		for sep := minAPSeparation; sep >= 0 && best < 0; sep-- {
			best = pick(sep)
		}
		if best < 0 {
			break
		}
		used[best] = true
		aps = append(aps, best)
	}
	return aps
}

// minAPSeparation is the preferred hop distance between access points.
const minAPSeparation = 3

// LinkGain adapts the testbed to the radio simulator's GainFunc.
func (tb *Testbed) LinkGain() radio.GainFunc {
	return tb.GainDBm
}

// Distance returns the 3D distance in meters between two nodes.
func (tb *Testbed) Distance(u, v int) float64 {
	a, b := tb.Nodes[u], tb.Nodes[v]
	dx, dy, dz := a.X-b.X, a.Y-b.Y, a.Z-b.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}
