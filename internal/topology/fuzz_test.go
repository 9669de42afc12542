package topology

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// FuzzDecode hardens the testbed JSON decoder against malformed input: it
// must either return an error or a testbed that round-trips bit for bit,
// and it may allocate no more than the input's decoded form plus the dense
// link tables of the nodes it accepted.
func FuzzDecode(f *testing.F) {
	tb, err := Generate(tinyConfig(), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tb.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","nodes":[{"id":0},{"id":1}],"links":[]}`))
	f.Add([]byte(`{"name":"x","nodes":[{"id":0},{"id":1}],"links":[{"from":0,"to":5}]}`))
	f.Add([]byte(`{"nodes":[` + strings.Repeat(`{},`, MaxNodes) + `{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *Testbed
		var err error
		grew := allocatedBy(func() { got, err = Decode(bytes.NewReader(data)) })
		n := 0
		if err == nil {
			n = got.NumNodes()
		}
		if limit := decodeAllocBound(len(data), n); grew > limit {
			t.Fatalf("decoding %d bytes (%d nodes) allocated %d bytes, bound %d", len(data), n, grew, limit)
		}
		if err != nil {
			return
		}
		if n < 2 || n > MaxNodes {
			t.Fatalf("decoder accepted %d nodes", n)
		}
		for u := 0; u < n; u++ {
			for ch := 0; ch < NumChannels; ch++ {
				if p := got.PRR(u, u, ch); p != 0 {
					t.Fatalf("self PRR %v", p)
				}
			}
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := Decode(&out)
		if err != nil {
			t.Fatalf("re-encoded testbed fails to decode: %v", err)
		}
		if err := sameTestbed(again, got); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}

// allocatedBy returns the bytes fn allocated on the heap.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding a document of size bytes that yields
// nodes nodes may allocate: the decoder's buffers and decoded values, each
// a bounded multiple of the input, the two dense link tables, and slack.
func decodeAllocBound(size, nodes int) uint64 {
	return 256*uint64(size) + 2*uint64(nodes*nodes*NumChannels)*8 + 1<<20
}

func tinyConfig() GenConfig {
	cfg := DefaultGenConfig()
	cfg.NumNodes = 4
	cfg.Floors = 1
	cfg.FloorWidthM = 10
	cfg.FloorDepthM = 10
	return cfg
}
