package topology

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
)

// denseGenerate is the reference generator: Generate as it was before the
// step table and the compact layout, evaluating measuredPRR directly for
// every link and storing dense gain and PRR matrices.
func denseGenerate(cfg GenConfig, seed int64) *Testbed {
	rng := rand.New(rand.NewSource(seed))
	tb := &Testbed{
		Name:  cfg.Name,
		Nodes: placeNodes(cfg, rng),
	}
	n := cfg.NumNodes
	tb.gain = make([]float64, n*n*NumChannels)
	tb.prr = make([]float64, n*n*NumChannels)
	txOff := make([]float64, n)
	rxOff := make([]float64, n)
	for i := 0; i < n; i++ {
		txOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
		rxOff[i] = rng.NormFloat64() * cfg.NodeOffsetSigmaDB
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			shadow := rng.NormFloat64() * cfg.ShadowSigmaDB
			floors := abs(tb.Nodes[u].Floor - tb.Nodes[v].Floor)
			loss := cfg.PathLoss.LossDB(tb.Distance(u, v), floors) + shadow
			for ch := 0; ch < NumChannels; ch++ {
				chFade := rng.NormFloat64() * cfg.ChannelFadeSigmaDB
				guv := cfg.TxPowerDBm - loss - chFade + txOff[u] + rxOff[v]
				gvu := cfg.TxPowerDBm - loss - chFade + txOff[v] + rxOff[u]
				tb.gain[tb.index(u, v, ch)] = guv
				tb.gain[tb.index(v, u, ch)] = gvu
				tb.prr[tb.index(u, v, ch)] = cfg.measuredPRR(guv)
				tb.prr[tb.index(v, u, ch)] = cfg.measuredPRR(gvu)
			}
		}
		for ch := 0; ch < NumChannels; ch++ {
			tb.gain[tb.index(u, u, ch)] = math.Inf(-1)
		}
	}
	return tb
}

// sameTestbed reports the first entry where got and want differ in any bit
// of PRR or GainDBm, or in name or nodes.
func sameTestbed(got, want *Testbed) error {
	if got.Name != want.Name || len(got.Nodes) != len(want.Nodes) {
		return fmt.Errorf("testbed %s/%d, want %s/%d", got.Name, len(got.Nodes), want.Name, len(want.Nodes))
	}
	for i := range got.Nodes {
		if got.Nodes[i] != want.Nodes[i] {
			return fmt.Errorf("node %d = %+v, want %+v", i, got.Nodes[i], want.Nodes[i])
		}
	}
	n := len(got.Nodes)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for ch := 0; ch < NumChannels; ch++ {
				if g, w := got.GainDBm(u, v, ch), want.GainDBm(u, v, ch); math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Errorf("GainDBm(%d,%d,%d) = %v, want %v", u, v, ch, g, w)
				}
				if g, w := got.PRR(u, v, ch), want.PRR(u, v, ch); math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Errorf("PRR(%d,%d,%d) = %v, want %v", u, v, ch, g, w)
				}
			}
		}
	}
	return nil
}

func encoded(t testing.TB, tb *Testbed) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		t.Fatalf("encode %s: %v", tb.Name, err)
	}
	return buf.Bytes()
}

// The step table must return exactly what measuredPRR does: on random
// inputs over the survey's range and over the whole float64 line, and on
// every float64 within ±ulps of each breakpoint.
func TestPRRTableMatchesDirect(t *testing.T) {
	small := DefaultGenConfig()
	small.ProbeCount = 20
	small.TemporalFadeSigmaDB = 0
	ulps := 4096
	if testing.Short() {
		ulps = 256
	}
	for _, cfg := range []GenConfig{DefaultGenConfig(), IndriyaConfig(), WUSTLConfig(), small} {
		cfg := cfg
		t.Run(fmt.Sprintf("%s/probes=%d/fade=%g", cfg.Name, cfg.ProbeCount, cfg.TemporalFadeSigmaDB), func(t *testing.T) {
			tab := buildPRRTable(cfg)
			if tab == nil {
				t.Fatal("no step table")
			}
			if len(tab.levels) != len(tab.breaks)+1 || len(tab.levels) > maxPRRLevels {
				t.Fatalf("%d levels for %d breakpoints", len(tab.levels), len(tab.breaks))
			}
			for i := 1; i < len(tab.levels); i++ {
				if !(tab.levels[i] > tab.levels[i-1]) {
					t.Fatalf("level %d: %v after %v", i, tab.levels[i], tab.levels[i-1])
				}
				if i > 1 && !(tab.breaks[i-1] > tab.breaks[i-2]) {
					t.Fatalf("breakpoint %d: %v after %v", i-1, tab.breaks[i-1], tab.breaks[i-2])
				}
			}
			mismatch := 0
			check := func(x float64) {
				got, want := tab.levels[tab.code(x)], cfg.measuredPRR(x)
				if math.Float64bits(got) != math.Float64bits(want) {
					if mismatch++; mismatch <= 5 {
						t.Errorf("rx %v (bits %#x): table %v, direct %v", x, math.Float64bits(x), got, want)
					}
				}
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				check(cfg.NoiseFloorDBm + (rng.Float64()-0.5)*160)
				if x := math.Float64frombits(rng.Uint64()); !math.IsNaN(x) {
					check(x)
				}
			}
			for _, x := range []float64{math.Inf(-1), -math.MaxFloat64, 0, math.MaxFloat64, math.Inf(1)} {
				check(x)
			}
			for _, b := range tab.breaks {
				down, up := b, b
				for i := 0; i < ulps; i++ {
					down, up = math.Nextafter(down, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
					check(down)
					check(up)
				}
				check(b)
			}
			if mismatch > 0 {
				t.Fatalf("%d mismatches", mismatch)
			}
		})
	}
}

func TestPRRTableDirectPath(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.ProbeCount = 0
	if buildPRRTable(cfg) != nil {
		t.Error("ProbeCount 0 built a step table")
	}
	cfg.ProbeCount = 1000 // ~700 levels: more than a uint8 code holds
	if buildPRRTable(cfg) != nil {
		t.Error("a table with more than 256 levels was built")
	}
	cfg.NumNodes = 12
	tb, err := Generate(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.prr == nil {
		t.Fatal("generated testbed without a table is not on the direct path")
	}
	if err := sameTestbed(tb, denseGenerate(cfg, 3)); err != nil {
		t.Fatal(err)
	}
}

// Generate must reproduce the dense reference bit for bit, entry by entry
// and in its encoded bytes.
func TestGenerateMatchesDenseReference(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	for _, cfg := range []GenConfig{IndriyaConfig(), WUSTLConfig()} {
		for seed := int64(0); seed < int64(seeds); seed++ {
			got, err := Generate(cfg, seed)
			if err != nil {
				t.Fatal(err)
			}
			if got.prrCode == nil || got.pairGain == nil {
				t.Fatalf("%s seed %d: not in the compact layout", cfg.Name, seed)
			}
			want := denseGenerate(cfg, seed)
			if err := sameTestbed(got, want); err != nil {
				t.Fatalf("%s seed %d: %v", cfg.Name, seed, err)
			}
			if !bytes.Equal(encoded(t, got), encoded(t, want)) {
				t.Fatalf("%s seed %d: Encode bytes differ from the reference", cfg.Name, seed)
			}
		}
	}
}

// Concurrent first use of receiver configurations, more of them than the
// table cache holds, must build each table safely and still reproduce the
// reference.
func TestGenerateConcurrentFirstUse(t *testing.T) {
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*(prrTableCacheSize+3))
	for k := 0; k < prrTableCacheSize+3; k++ {
		cfg := DefaultGenConfig()
		cfg.NumNodes = 12
		cfg.PacketBits = 1001 + k // receiver tuples no other test uses
		want := denseGenerate(cfg, int64(k))
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Generate(cfg, int64(k))
				if err == nil {
					err = sameTestbed(got, want)
				}
				if err != nil {
					errs <- fmt.Errorf("packet bits %d: %w", cfg.PacketBits, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	prrTables.Lock()
	size := len(prrTables.m)
	prrTables.Unlock()
	if size > prrTableCacheSize {
		t.Errorf("table cache holds %d entries, bound %d", size, prrTableCacheSize)
	}
}

// A NaN gain has no step-table code; the survey falls back to the direct
// path and records what measuredPRR does.
func TestCustomNaNGainUsesDirectPath(t *testing.T) {
	cfg := DefaultGenConfig()
	nodes := []Node{{ID: 0}, {ID: 1, X: 5}, {ID: 2, X: 10}}
	tb, err := Custom("nan", nodes, func(u, v, ch int) float64 {
		if u == 0 && v == 2 {
			return math.NaN()
		}
		return -70
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tb.prr == nil {
		t.Fatal("NaN gain stored as a table code")
	}
	if p := tb.PRR(0, 2, 0); !math.IsNaN(p) {
		t.Errorf("PRR of the NaN link = %v, want the direct path's NaN", p)
	}
	if p, want := tb.PRR(0, 1, 0), cfg.measuredPRR(-70); p != want {
		t.Errorf("PRR(0,1) = %v, want %v", p, want)
	}
}

func TestNodeLimit(t *testing.T) {
	var limit *NodeLimitError
	cfg := DefaultGenConfig()
	cfg.NumNodes = MaxNodes + 1
	if _, err := Generate(cfg, 1); !errors.As(err, &limit) || limit.Nodes != MaxNodes+1 {
		t.Errorf("Generate(%d nodes) = %v, want a NodeLimitError", cfg.NumNodes, err)
	}
	nodes := make([]Node, MaxNodes+1)
	if _, err := Custom("big", nodes, func(u, v, ch int) float64 { return -60 }, DefaultGenConfig()); !errors.As(err, &limit) {
		t.Errorf("Custom(%d nodes) = %v, want a NodeLimitError", len(nodes), err)
	}
	if _, err := Decode(strings.NewReader(bareNodes(MaxNodes + 1))); !errors.As(err, &limit) {
		t.Errorf("Decode(%d nodes) = %v, want a NodeLimitError", MaxNodes+1, err)
	}
	if _, err := Decode(strings.NewReader(bareNodes(MaxNodes))); err != nil {
		t.Errorf("Decode(%d nodes): %v", MaxNodes, err)
	}
}

// bareNodes is a testbed document of n nodes and no links.
func bareNodes(n int) string {
	var b strings.Builder
	b.WriteString(`{"name":"bare","nodes":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":%d,"x":%d.5,"y":2.5,"z":0,"floor":0}`, i, i%100)
	}
	b.WriteString(`],"links":[]}`)
	return b.String()
}

// A ~1 MB document of 20k bare nodes used to ask Decode for two dense
// matrices of ~50 GB each, a fatal out-of-memory no recover catches; the
// decode therefore runs in a child process, so a regression fails this
// test rather than killing the suite.
func TestDecode20kNodesInSubprocess(t *testing.T) {
	if os.Getenv("TOPOLOGY_DECODE_20K_CHILD") == "1" {
		_, err := Decode(strings.NewReader(bareNodes(20000)))
		var limit *NodeLimitError
		if !errors.As(err, &limit) {
			t.Fatalf("Decode(20000 nodes) = %v, want a NodeLimitError", err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestDecode20kNodesInSubprocess$", "-test.count=1")
	cmd.Env = append(os.Environ(), "TOPOLOGY_DECODE_20K_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child decode failed: %v\n%s", err, out)
	}
}

func TestDecodeRejectsInvalidLinkValues(t *testing.T) {
	for _, prr := range []string{"1.5", "-0.1"} {
		doc := `{"name":"x","nodes":[{"id":0},{"id":1}],"links":[{"from":0,"to":1,"prr":[` + prr + `]}]}`
		if _, err := Decode(strings.NewReader(doc)); err == nil {
			t.Errorf("PRR %s accepted", prr)
		}
	}
}

// A link with zero PRR on every channel is not stored, as Encode would
// drop it, so its gain does not survive a decode only to vanish on the
// next round trip.
func TestDecodeDropsZeroPRRLinks(t *testing.T) {
	doc := `{"name":"x","nodes":[{"id":0},{"id":1}],"links":[` +
		`{"from":0,"to":1,"prr":[0],"gainDBm":[-97]},` +
		`{"from":1,"to":0,"prr":[0.5],"gainDBm":[-80]}]}`
	tb, err := Decode(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if g := tb.GainDBm(0, 1, 0); !math.IsInf(g, -1) {
		t.Errorf("zero-PRR link kept gain %v", g)
	}
	if g, p := tb.GainDBm(1, 0, 0), tb.PRR(1, 0, 0); g != -80 || p != 0.5 {
		t.Errorf("link 1→0 = %v dBm / PRR %v, want -80 / 0.5", g, p)
	}
	again, err := Decode(bytes.NewReader(encoded(t, tb)))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTestbed(again, tb); err != nil {
		t.Fatal(err)
	}
}
