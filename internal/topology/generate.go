package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"wsan/internal/radio"
)

// GenConfig parameterizes the synthetic testbed generator. The zero value is
// not usable; start from DefaultGenConfig, IndriyaConfig, or WUSTLConfig.
type GenConfig struct {
	Name     string
	NumNodes int
	// Floors is the number of building storeys; nodes are split evenly.
	Floors int
	// FloorWidthM and FloorDepthM are the floor-plate dimensions in meters.
	FloorWidthM float64
	FloorDepthM float64
	// FloorHeightM is the storey height in meters.
	FloorHeightM float64
	// PathLoss is the large-scale propagation model.
	PathLoss radio.PathLossModel
	// ShadowSigmaDB is the per-link lognormal shadowing std-dev (symmetric,
	// channel-independent: obstacles affect all channels).
	ShadowSigmaDB float64
	// ChannelFadeSigmaDB is the per-link per-channel multipath fading
	// std-dev (symmetric per channel: frequency-selective fading).
	ChannelFadeSigmaDB float64
	// NodeOffsetSigmaDB is the per-node hardware TX/RX calibration std-dev;
	// it is what makes link PRRs asymmetric.
	NodeOffsetSigmaDB float64
	// TxPowerDBm is the transmit power used for the PRR survey.
	TxPowerDBm float64
	// NoiseFloorDBm is the receiver noise floor.
	NoiseFloorDBm float64
	// PacketBits is the probe frame length used to convert SNR to PRR.
	PacketBits int
	// MeasurementFloor zeroes out PRRs below this value: a real survey keeps
	// only usable neighbors in the neighbor table, so weak couplings are
	// invisible to the network manager — the very estimation error that
	// motivates conservative reuse (couplings below the floor still
	// interfere in the simulator, they are just not in G_R).
	MeasurementFloor float64
	// ProbeCount quantizes PRRs to multiples of 1/ProbeCount, matching a
	// survey that sends ProbeCount probes per link per channel. Zero
	// disables quantization.
	ProbeCount int
	// Placement selects the node layout per floor (default PlacementGrid).
	Placement Placement
	// TemporalFadeSigmaDB is the total temporal variation the survey
	// observes over its collection window: fast per-slot fading plus the
	// slow environment drift between sessions. The measured PRR is the
	// variation-averaged reception probability, so link selection absorbs
	// both; set it to sqrt(FadingSigmaDB² + SurveyDriftSigmaDB²) of the
	// simulator for consistency. Zero means the survey sees only the mean
	// SNR.
	TemporalFadeSigmaDB float64
}

// DefaultGenConfig returns a mid-size three-floor deployment.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Name:                "synthetic",
		NumNodes:            60,
		Floors:              3,
		FloorWidthM:         70,
		FloorDepthM:         32,
		FloorHeightM:        4,
		PathLoss:            radio.DefaultPathLoss(),
		ShadowSigmaDB:       4.0,
		ChannelFadeSigmaDB:  2.0,
		NodeOffsetSigmaDB:   1.0,
		TxPowerDBm:          radio.DefaultTxPowerDBm,
		NoiseFloorDBm:       radio.DefaultNoiseFloorDBm,
		PacketBits:          radio.DefaultPacketBits,
		MeasurementFloor:    0.30,
		ProbeCount:          100,
		TemporalFadeSigmaDB: 3.5,
	}
}

// IndriyaConfig approximates the 80-node, 3-storey Indriya testbed at NUS:
// large floor plates and a dense deployment.
func IndriyaConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Name = "indriya"
	cfg.NumNodes = 80
	cfg.FloorWidthM = 140
	cfg.FloorDepthM = 56
	cfg.PathLoss.Exponent = 3.8
	return cfg
}

// WUSTLConfig approximates the 60-node, 3-floor WUSTL testbed in Bryan Hall.
func WUSTLConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.Name = "wustl"
	cfg.NumNodes = 60
	cfg.FloorWidthM = 100
	cfg.FloorDepthM = 40
	cfg.PathLoss.Exponent = 3.7
	return cfg
}

// Indriya generates the Indriya-like testbed from a seed.
func Indriya(seed int64) (*Testbed, error) { return Generate(IndriyaConfig(), seed) }

// WUSTL generates the WUSTL-like testbed from a seed.
func WUSTL(seed int64) (*Testbed, error) { return Generate(WUSTLConfig(), seed) }

// Generate synthesizes a testbed: it places nodes on a jittered grid per
// floor, realizes the static radio environment (shadowing, per-channel
// fading, per-node offsets), and derives the per-channel PRR matrices through
// the interference-free SINR→PRR curve. All randomness comes from the seed;
// the same (config, seed) pair always yields the identical testbed.
func Generate(cfg GenConfig, seed int64) (*Testbed, error) {
	if cfg.NumNodes < 2 {
		return nil, fmt.Errorf("generate %s: need at least 2 nodes, have %d", cfg.Name, cfg.NumNodes)
	}
	if cfg.NumNodes > MaxNodes {
		return nil, fmt.Errorf("generate %s: %w", cfg.Name, &NodeLimitError{Nodes: cfg.NumNodes})
	}
	if cfg.Floors < 1 {
		return nil, fmt.Errorf("generate %s: need at least 1 floor, have %d", cfg.Name, cfg.Floors)
	}
	rng := rand.New(rand.NewSource(seed))
	tb := &Testbed{
		Name:  cfg.Name,
		Nodes: placeNodes(cfg, rng),
	}
	n := cfg.NumNodes

	// Per-node hardware offsets (TX power and RX sensitivity calibration).
	tb.txOff = make([]float64, n)
	tb.rxOff = make([]float64, n)
	for i := 0; i < n; i++ {
		tb.txOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
		tb.rxOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
	}

	// u→v and v→u share path loss, shadowing, and channel fade; they differ
	// only in the endpoint hardware offsets, which GainDBm adds on read.
	tb.pairGain = make([]float64, n*(n-1)/2*NumChannels)
	k := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			shadow := rng.NormFloat64() * cfg.ShadowSigmaDB
			floors := abs(tb.Nodes[u].Floor - tb.Nodes[v].Floor)
			loss := cfg.PathLoss.LossDB(tb.Distance(u, v), floors) + shadow
			for ch := 0; ch < NumChannels; ch++ {
				chFade := rng.NormFloat64() * cfg.ChannelFadeSigmaDB
				tb.pairGain[k] = cfg.TxPowerDBm - loss - chFade
				k++
			}
		}
	}
	tb.survey(cfg)
	return tb, nil
}

// Custom builds a testbed from explicit link gains, for tests and
// hand-crafted deployments: gain(u, v, ch) must return the mean received
// power in dBm at v when u transmits on channel index ch. PRRs are derived
// from the gains exactly as Generate does, using cfg's receiver parameters
// (noise floor, packet length, measurement floor, probe quantization).
func Custom(name string, nodes []Node, gain func(u, v, ch int) float64, cfg GenConfig) (*Testbed, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("custom testbed %s: need at least 2 nodes, have %d", name, len(nodes))
	}
	if len(nodes) > MaxNodes {
		return nil, fmt.Errorf("custom testbed %s: %w", name, &NodeLimitError{Nodes: len(nodes)})
	}
	n := len(nodes)
	tb := &Testbed{
		Name:  name,
		Nodes: append([]Node(nil), nodes...),
		gain:  make([]float64, n*n*NumChannels),
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < NumChannels; ch++ {
				if u == v {
					tb.gain[tb.index(u, v, ch)] = math.Inf(-1)
					continue
				}
				tb.gain[tb.index(u, v, ch)] = gain(u, v, ch)
			}
		}
	}
	tb.survey(cfg)
	return tb, nil
}

// survey records the PRR of every directed link from its gain, as cfg's
// receiver would measure it: as one-byte codes into the receiver's step
// table where there is one, otherwise evaluated directly and stored dense.
func (tb *Testbed) survey(cfg GenConfig) {
	if t := cfg.prrTable(); t != nil {
		if code := tb.prrCodes(t); code != nil {
			tb.prrCode, tb.levels = code, t.levels
			return
		}
	}
	n := len(tb.Nodes)
	tb.prr = make([]float64, n*n*NumChannels)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			for ch := 0; ch < NumChannels; ch++ {
				tb.prr[tb.index(u, v, ch)] = cfg.measuredPRR(tb.GainDBm(u, v, ch))
			}
		}
	}
}

// prrCodes looks every directed link's gain up in t, or returns nil when a
// gain is NaN, which only the direct path measures.
func (tb *Testbed) prrCodes(t *prrTable) []uint8 {
	n := len(tb.Nodes)
	code := make([]uint8, n*n*NumChannels)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			for ch := 0; ch < NumChannels; ch++ {
				g := tb.GainDBm(u, v, ch)
				if math.IsNaN(g) {
					return nil
				}
				code[tb.index(u, v, ch)] = t.code(g)
			}
		}
	}
	return code
}

// gaussHermite7 holds the 7-point Gauss-Hermite nodes and weights for
// integrating against exp(-t²); used to average the PRR curve over
// Gaussian-in-dB temporal fading.
var gaussHermite7 = [7][2]float64{
	{-2.6519613568352334, 0.0009717812450995},
	{-1.6735516287674714, 0.0545155828191270},
	{-0.8162878828589647, 0.4256072526101278},
	{0, 0.8102646175568073},
	{0.8162878828589647, 0.4256072526101278},
	{1.6735516287674714, 0.0545155828191270},
	{2.6519613568352334, 0.0009717812450995},
}

// measuredPRR converts a mean received power to the PRR a link survey would
// record: the fading-averaged interference-free PRR, quantized to the
// probe-count resolution, with sub-floor values reported as zero. Surveys
// read it through the receiver's prrTable; it is the table's oracle.
func (cfg GenConfig) measuredPRR(rxDBm float64) float64 {
	snr := rxDBm - cfg.NoiseFloorDBm
	var prr float64
	if cfg.TemporalFadeSigmaDB > 0 {
		// E[PRR(snr + X)], X ~ N(0, σ²), via Gauss-Hermite quadrature:
		// substitute x = √2·σ·t so the weights integrate exp(-t²).
		const sqrtPi = 1.7724538509055160
		for _, nw := range gaussHermite7 {
			x := math.Sqrt2 * cfg.TemporalFadeSigmaDB * nw[0]
			prr += nw[1] * radio.PRR802154(snr+x, cfg.PacketBits)
		}
		prr /= sqrtPi
	} else {
		prr = radio.PRR802154(snr, cfg.PacketBits)
	}
	if cfg.ProbeCount > 0 {
		prr = math.Round(prr*float64(cfg.ProbeCount)) / float64(cfg.ProbeCount)
	}
	if prr < cfg.MeasurementFloor {
		return 0
	}
	if prr > 1 {
		return 1
	}
	return prr
}

// prrTable is measuredPRR of one receiver configuration as the step
// function it is: the output is quantized to 1/ProbeCount, so it takes a
// few dozen levels, each over an interval of rxDBm. breaks[i] is the least
// float64 whose measured PRR is levels[i+1]; every input below breaks[0]
// measures levels[0]. The levels strictly increase.
type prrTable struct {
	breaks []float64
	levels []float64
}

// maxPRRLevels is the most levels a table may hold: a level's index is
// stored as a uint8 code.
const maxPRRLevels = 256

// buildPRRTable finds every breakpoint of cfg.measuredPRR by bisection on
// the exact function, down to adjacent float64 values, over the whole
// float64 line. It returns nil, leaving callers on the direct path, when
// probes are not quantized, when the levels do not fit a uint8 code, or
// when the function is not a non-decreasing step function at the points
// the bisection probed (including ±Inf).
func buildPRRTable(cfg GenConfig) *prrTable {
	if cfg.ProbeCount <= 0 {
		return nil
	}
	lo, hi := -math.MaxFloat64, math.MaxFloat64
	flo, fhi := cfg.measuredPRR(lo), cfg.measuredPRR(hi)
	if cfg.measuredPRR(math.Inf(-1)) != flo || cfg.measuredPRR(math.Inf(1)) != fhi {
		return nil // also rejects a NaN level
	}
	t := &prrTable{levels: []float64{flo}}
	if !t.split(cfg, lo, flo, hi, fhi) {
		return nil
	}
	return t
}

// split appends the breakpoints in (a, b] in increasing order, given
// fa = measuredPRR(a) and fb = measuredPRR(b). An interval whose ends
// measure the same level is taken to be flat. A level is appended only
// above the level to its left, so the levels strictly increase; split
// reports false when a probe measures below its left neighbour (or NaN)
// or the levels outgrow a uint8 code.
func (t *prrTable) split(cfg GenConfig, a, fa, b, fb float64) bool {
	switch {
	case fa == fb:
		return true
	case !(fa < fb) || len(t.levels) >= maxPRRLevels:
		return false
	}
	m, adjacent := orderedMid(a, b)
	if adjacent {
		t.breaks = append(t.breaks, b)
		t.levels = append(t.levels, fb)
		return true
	}
	fm := cfg.measuredPRR(m)
	return t.split(cfg, a, fa, m, fm) && t.split(cfg, m, fm, b, fb)
}

// orderedMid returns the float64 halfway between a < b in the order of
// representable values, so a bisection reaches adjacent values in at most
// 64 steps from any interval; adjacent reports that none lies between.
func orderedMid(a, b float64) (mid float64, adjacent bool) {
	oa, ob := orderedBits(a), orderedBits(b)
	if oa+1 >= ob {
		return 0, true
	}
	om := oa>>1 + ob>>1 + oa&ob&1
	if om >= 0 {
		return math.Float64frombits(uint64(om)), false
	}
	return math.Float64frombits(uint64(math.MinInt64 - om)), false
}

// orderedBits maps a float64 to an int64 that orders like the float (both
// zeros map to 0).
func orderedBits(x float64) int64 {
	b := int64(math.Float64bits(x))
	if b < 0 {
		b = math.MinInt64 - b
	}
	return b
}

// code returns the index into t.levels of measuredPRR(rx), for any rx but
// NaN.
func (t *prrTable) code(rx float64) uint8 {
	lo, hi := 0, len(t.breaks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t.breaks[m] <= rx {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return uint8(lo)
}

// receiverKey is every GenConfig field measuredPRR reads.
type receiverKey struct {
	noiseFloorDBm, temporalFadeSigmaDB, measurementFloor float64
	packetBits, probeCount                               int
}

// prrTableCacheSize bounds how many receiver configurations' tables a
// process keeps; past it, an arbitrary entry is dropped for the new one.
const prrTableCacheSize = 8

// prrTables caches the step table of each receiver configuration. Surveys
// run concurrently (sweep callers, daemon registrations), so entries are
// guarded and each table is built once.
var prrTables = struct {
	sync.Mutex
	m map[receiverKey]*prrTableEntry
}{m: make(map[receiverKey]*prrTableEntry)}

type prrTableEntry struct {
	once  sync.Once
	table *prrTable
}

// prrTable returns the receiver's step table, building it on first use,
// or nil when PRRs must be evaluated directly.
func (cfg GenConfig) prrTable() *prrTable {
	if cfg.ProbeCount <= 0 {
		return nil
	}
	key := receiverKey{cfg.NoiseFloorDBm, cfg.TemporalFadeSigmaDB, cfg.MeasurementFloor, cfg.PacketBits, cfg.ProbeCount}
	prrTables.Lock()
	e := prrTables.m[key]
	if e == nil {
		if len(prrTables.m) >= prrTableCacheSize {
			for k := range prrTables.m {
				delete(prrTables.m, k)
				break
			}
		}
		e = &prrTableEntry{}
		prrTables.m[key] = e
	}
	prrTables.Unlock()
	e.once.Do(func() { e.table = buildPRRTable(cfg) })
	return e.table
}

// Placement selects how nodes are laid out on each floor.
type Placement int

const (
	// PlacementGrid is a jittered grid, the default — an office floor with
	// devices in most rooms.
	PlacementGrid Placement = iota
	// PlacementCorridor strings nodes along two long corridors per floor,
	// the classic instrumented-hallway testbed layout.
	PlacementCorridor
	// PlacementUniform scatters nodes uniformly at random.
	PlacementUniform
)

// placeNodes lays nodes out on each floor according to cfg.Placement.
func placeNodes(cfg GenConfig, rng *rand.Rand) []Node {
	switch cfg.Placement {
	case PlacementCorridor:
		return placeCorridor(cfg, rng)
	case PlacementUniform:
		return placeUniform(cfg, rng)
	default:
		return placeGrid(cfg, rng)
	}
}

// placeCorridor puts nodes along two corridors at 1/3 and 2/3 of the floor
// depth, evenly spaced with jitter along the corridor axis.
func placeCorridor(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	perFloor := make([]int, cfg.Floors)
	for i := 0; i < cfg.NumNodes; i++ {
		perFloor[i%cfg.Floors]++
	}
	id := 0
	for f := 0; f < cfg.Floors; f++ {
		count := perFloor[f]
		perCorridor := (count + 1) / 2
		for i := 0; i < count; i++ {
			corridor := i / perCorridor
			posInCorridor := i % perCorridor
			dx := cfg.FloorWidthM / float64(perCorridor)
			y := cfg.FloorDepthM / 3
			if corridor == 1 {
				y = 2 * cfg.FloorDepthM / 3
			}
			nodes = append(nodes, Node{
				ID:    id,
				X:     (float64(posInCorridor)+0.5)*dx + (rng.Float64()-0.5)*dx*0.4,
				Y:     y + (rng.Float64()-0.5)*2,
				Z:     float64(f) * cfg.FloorHeightM,
				Floor: f,
			})
			id++
		}
	}
	return nodes
}

// placeUniform scatters nodes uniformly over each floor plate.
func placeUniform(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	for i := 0; i < cfg.NumNodes; i++ {
		f := i % cfg.Floors
		nodes = append(nodes, Node{
			ID:    i,
			X:     rng.Float64() * cfg.FloorWidthM,
			Y:     rng.Float64() * cfg.FloorDepthM,
			Z:     float64(f) * cfg.FloorHeightM,
			Floor: f,
		})
	}
	return nodes
}

// placeGrid lays nodes out on a jittered grid on each floor, mimicking the
// office deployments of the physical testbeds.
func placeGrid(cfg GenConfig, rng *rand.Rand) []Node {
	nodes := make([]Node, 0, cfg.NumNodes)
	perFloor := make([]int, cfg.Floors)
	for i := 0; i < cfg.NumNodes; i++ {
		perFloor[i%cfg.Floors]++
	}
	id := 0
	for f := 0; f < cfg.Floors; f++ {
		count := perFloor[f]
		if count == 0 {
			continue
		}
		// Grid dimensions proportional to the floor aspect ratio.
		cols := int(math.Ceil(math.Sqrt(float64(count) * cfg.FloorWidthM / cfg.FloorDepthM)))
		if cols < 1 {
			cols = 1
		}
		rows := (count + cols - 1) / cols
		dx := cfg.FloorWidthM / float64(cols)
		dy := cfg.FloorDepthM / float64(rows)
		for i := 0; i < count; i++ {
			r, c := i/cols, i%cols
			jx := (rng.Float64() - 0.5) * dx * 0.6
			jy := (rng.Float64() - 0.5) * dy * 0.6
			nodes = append(nodes, Node{
				ID:    id,
				X:     (float64(c)+0.5)*dx + jx,
				Y:     (float64(r)+0.5)*dy + jy,
				Z:     float64(f) * cfg.FloorHeightM,
				Floor: f,
			})
			id++
		}
	}
	return nodes
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
