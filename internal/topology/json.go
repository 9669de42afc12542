package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// testbedJSON is the on-disk representation of a testbed. Only directed links
// with a nonzero PRR on at least one channel are stored; everything else is
// implicitly disconnected. Gains are stored so a decoded testbed can still
// drive the network simulator.
type testbedJSON struct {
	Name  string     `json:"name"`
	Nodes []Node     `json:"nodes"`
	Links []linkJSON `json:"links"`
}

type linkJSON struct {
	From int                  `json:"from"`
	To   int                  `json:"to"`
	PRR  [NumChannels]float64 `json:"prr"`
	Gain [NumChannels]float64 `json:"gainDBm"`
}

// Encode writes the testbed as JSON.
func (tb *Testbed) Encode(w io.Writer) error {
	out := testbedJSON{
		Name:  tb.Name,
		Nodes: append([]Node(nil), tb.Nodes...),
	}
	n := len(tb.Nodes)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			any := false
			var lj linkJSON
			lj.From, lj.To = u, v
			for ch := 0; ch < NumChannels; ch++ {
				lj.PRR[ch] = tb.PRR(u, v, ch)
				lj.Gain[ch] = tb.GainDBm(u, v, ch)
				if lj.PRR[ch] > 0 {
					any = true
				}
			}
			if any {
				out.Links = append(out.Links, lj)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Decode reads a testbed previously written by Encode. It refuses more
// than MaxNodes nodes (with a *NodeLimitError) before allocating the link
// tables, and refuses links that reference a missing node, PRRs outside
// [0,1], and gains that are NaN or +Inf. A link whose PRR is zero on every
// channel is left disconnected, as Encode would write it, so a decoded
// testbed re-encodes and decodes to the same PRRs and gains.
func Decode(r io.Reader) (*Testbed, error) {
	var in testbedJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("decode testbed: %w", err)
	}
	n := len(in.Nodes)
	if n < 2 {
		return nil, fmt.Errorf("decode testbed: %d nodes, need at least 2", n)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("decode testbed: %w", &NodeLimitError{Nodes: n})
	}
	for _, lj := range in.Links {
		if lj.From < 0 || lj.From >= n || lj.To < 0 || lj.To >= n {
			return nil, fmt.Errorf("decode testbed: link (%d,%d) out of range", lj.From, lj.To)
		}
		for ch := 0; ch < NumChannels; ch++ {
			if p := lj.PRR[ch]; !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("decode testbed: link (%d,%d) channel %d: PRR %v outside [0,1]", lj.From, lj.To, ch, p)
			}
			if g := lj.Gain[ch]; math.IsNaN(g) || math.IsInf(g, 1) {
				return nil, fmt.Errorf("decode testbed: link (%d,%d) channel %d: gain %v", lj.From, lj.To, ch, g)
			}
		}
	}
	tb := &Testbed{
		Name:  in.Name,
		Nodes: in.Nodes,
		gain:  make([]float64, n*n*NumChannels),
		prr:   make([]float64, n*n*NumChannels),
	}
	for i := range tb.gain {
		tb.gain[i] = math.Inf(-1)
	}
	for _, lj := range in.Links {
		if lj.From == lj.To || lj.PRR == ([NumChannels]float64{}) {
			continue
		}
		for ch := 0; ch < NumChannels; ch++ {
			tb.prr[tb.index(lj.From, lj.To, ch)] = lj.PRR[ch]
			tb.gain[tb.index(lj.From, lj.To, ch)] = lj.Gain[ch]
		}
	}
	return tb, nil
}
