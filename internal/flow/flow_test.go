package flow

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"wsan/internal/graph"
)

func TestPeriodSlots(t *testing.T) {
	tests := []struct {
		exp  int
		want int
	}{
		{-2, 25},
		{-1, 50},
		{0, 100},
		{1, 200},
		{3, 800},
	}
	for _, tc := range tests {
		if got := PeriodSlots(tc.exp); got != tc.want {
			t.Errorf("PeriodSlots(%d) = %d, want %d", tc.exp, got, tc.want)
		}
	}
}

func TestFlowValidate(t *testing.T) {
	valid := Flow{ID: 0, Src: 1, Dst: 2, Period: 100, Deadline: 80}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
	cases := []Flow{
		{ID: 1, Src: 1, Dst: 2, Period: 0, Deadline: 0},
		{ID: 2, Src: 1, Dst: 2, Period: 100, Deadline: 0},
		{ID: 3, Src: 1, Dst: 2, Period: 100, Deadline: 101},
		{ID: 4, Src: 1, Dst: 1, Period: 100, Deadline: 50},
	}
	for _, f := range cases {
		if err := f.Validate(); err == nil {
			t.Errorf("flow %d should be invalid", f.ID)
		}
	}
}

func TestHyperperiodHarmonic(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Period: 50},
		{ID: 1, Period: 100},
		{ID: 2, Period: 400},
	}
	h, err := Hyperperiod(flows)
	if err != nil {
		t.Fatal(err)
	}
	if h != 400 {
		t.Errorf("hyperperiod = %d, want 400", h)
	}
}

func TestHyperperiodNonHarmonic(t *testing.T) {
	flows := []*Flow{{ID: 0, Period: 6}, {ID: 1, Period: 10}}
	h, err := Hyperperiod(flows)
	if err != nil {
		t.Fatal(err)
	}
	if h != 30 {
		t.Errorf("hyperperiod = %d, want 30", h)
	}
}

func TestHyperperiodErrors(t *testing.T) {
	if _, err := Hyperperiod(nil); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := Hyperperiod([]*Flow{{ID: 0, Period: 0}}); err == nil {
		t.Error("zero period should fail")
	}
}

func TestAssignDM(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Deadline: 300, Period: 400},
		{ID: 1, Deadline: 100, Period: 200},
		{ID: 2, Deadline: 200, Period: 400},
		{ID: 3, Deadline: 100, Period: 100},
	}
	AssignDM(flows)
	wantDeadlines := []int{100, 100, 200, 300}
	for i, f := range flows {
		if f.Deadline != wantDeadlines[i] {
			t.Errorf("pos %d deadline = %d, want %d", i, f.Deadline, wantDeadlines[i])
		}
		if f.ID != i {
			t.Errorf("pos %d ID = %d, want %d", i, f.ID, i)
		}
	}
	// Stable tie-break: the original ID-1 flow precedes the ID-3 flow.
	if flows[0].Period != 200 {
		t.Error("DM tie-break is not stable by original ID")
	}
}

func TestAssignRM(t *testing.T) {
	flows := []*Flow{
		{ID: 0, Period: 400, Deadline: 100},
		{ID: 1, Period: 100, Deadline: 100},
	}
	AssignRM(flows)
	if flows[0].Period != 100 || flows[1].Period != 400 {
		t.Error("RM ordering wrong")
	}
}

func completeGraph(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return g
}

func TestGenerateBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := completeGraph(20)
	flows, err := Generate(rng, g, GenConfig{NumFlows: 30, MinPeriodExp: -1, MaxPeriodExp: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 30 {
		t.Fatalf("got %d flows, want 30", len(flows))
	}
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			t.Errorf("generated flow invalid: %v", err)
		}
		if f.Period < 50 || f.Period > 800 {
			t.Errorf("period %d outside [50,800]", f.Period)
		}
		if f.Deadline < f.Period/2 {
			t.Errorf("deadline %d below period/2 %d", f.Deadline, f.Period/2)
		}
	}
	// DM order.
	for i := 1; i < len(flows); i++ {
		if flows[i].Deadline < flows[i-1].Deadline {
			t.Error("flows not in DM order")
		}
	}
}

// Generate refuses workloads outside the documented limits before drawing
// anything: at 2^30 s one period is 100·2^30 slots, a schedule grid no
// machine can hold.
func TestGenerateLimits(t *testing.T) {
	g := completeGraph(10)
	for _, cfg := range []GenConfig{
		{NumFlows: 2, MinPeriodExp: 30, MaxPeriodExp: 30},
		{NumFlows: 2, MinPeriodExp: 0, MaxPeriodExp: MaxPeriodExp + 1},
		{NumFlows: 2, MinPeriodExp: MinPeriodExp - 1, MaxPeriodExp: 0},
		{NumFlows: MaxFlows + 1, MinPeriodExp: 0, MaxPeriodExp: 0},
	} {
		if _, err := Generate(rand.New(rand.NewSource(1)), g, cfg); err == nil {
			t.Errorf("Generate(%+v) accepted", cfg)
		}
	}
	flows, err := Generate(rand.New(rand.NewSource(1)), g,
		GenConfig{NumFlows: MaxFlows, MinPeriodExp: MinPeriodExp, MaxPeriodExp: MaxPeriodExp})
	if err != nil || len(flows) != MaxFlows {
		t.Fatalf("Generate at the limits: %d flows, %v", len(flows), err)
	}
}

func TestGenerateExcludesAPs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := completeGraph(10)
	aps := []int{0, 1}
	flows, err := Generate(rng, g, GenConfig{
		NumFlows: 50, MinPeriodExp: 0, MaxPeriodExp: 0, Exclude: aps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Src == 0 || f.Src == 1 || f.Dst == 0 || f.Dst == 1 {
			t.Fatalf("flow uses excluded node: %+v", f)
		}
	}
}

func TestGenerateOnlyLargestComponent(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	flows, err := Generate(rng, g, GenConfig{NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Src > 3 || f.Dst > 3 {
			t.Fatalf("flow endpoints outside largest component: %+v", f)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := completeGraph(5)
	if _, err := Generate(rng, g, GenConfig{NumFlows: 0, MinPeriodExp: 0, MaxPeriodExp: 0}); err == nil {
		t.Error("NumFlows=0 should fail")
	}
	if _, err := Generate(rng, g, GenConfig{NumFlows: 5, MinPeriodExp: 2, MaxPeriodExp: 1}); err == nil {
		t.Error("inverted period range should fail")
	}
	tiny := completeGraph(2)
	if _, err := Generate(rng, tiny, GenConfig{
		NumFlows: 1, MinPeriodExp: 0, MaxPeriodExp: 0, Exclude: []int{0},
	}); err == nil {
		t.Error("fewer than 2 eligible nodes should fail")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := completeGraph(15)
	gen := func(seed int64) []*Flow {
		rng := rand.New(rand.NewSource(seed))
		fs, err := Generate(rng, g, GenConfig{NumFlows: 10, MinPeriodExp: -1, MaxPeriodExp: 2})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := gen(7), gen(7)
	for i := range a {
		if flowValue(a[i]) != flowValue(b[i]) {
			t.Fatalf("same seed, different flows at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// flowValue projects the comparable fields; routes are nil at generation time.
func flowValue(f *Flow) [5]int {
	return [5]int{f.ID, f.Src, f.Dst, f.Period, f.Deadline}
}

// Property: generated deadlines always satisfy D ≤ P and D ≥ P/2, and the
// hyperperiod always equals the max period for harmonic sets.
func TestQuickGenerateInvariants(t *testing.T) {
	g := completeGraph(12)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs, err := Generate(rng, g, GenConfig{NumFlows: 8, MinPeriodExp: -1, MaxPeriodExp: 3})
		if err != nil {
			return false
		}
		maxP := 0
		for _, f := range fs {
			if f.Deadline > f.Period || f.Deadline < f.Period/2 {
				return false
			}
			if f.Period > maxP {
				maxP = f.Period
			}
		}
		h, err := Hyperperiod(fs)
		return err == nil && h == maxP
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPhaseValidation(t *testing.T) {
	good := Flow{ID: 0, Src: 0, Dst: 1, Period: 100, Deadline: 60, Phase: 40}
	if err := good.Validate(); err != nil {
		t.Errorf("phase 40 + deadline 60 = period should validate: %v", err)
	}
	bad := Flow{ID: 1, Src: 0, Dst: 1, Period: 100, Deadline: 60, Phase: 41}
	if err := bad.Validate(); err == nil {
		t.Error("phase + deadline > period should fail")
	}
	neg := Flow{ID: 2, Src: 0, Dst: 1, Period: 100, Deadline: 60, Phase: -1}
	if err := neg.Validate(); err == nil {
		t.Error("negative phase should fail")
	}
}

func TestRelease(t *testing.T) {
	f := Flow{Period: 100, Phase: 25}
	if f.Release(0) != 25 || f.Release(3) != 325 {
		t.Errorf("Release = %d, %d", f.Release(0), f.Release(3))
	}
}

func TestGenerateStaggerPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := completeGraph(15)
	flows, err := Generate(rng, g, GenConfig{
		NumFlows: 40, MinPeriodExp: 0, MaxPeriodExp: 2, StaggerPhases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	nonZero := 0
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			t.Fatalf("staggered flow invalid: %v", err)
		}
		if f.Phase > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Error("staggering produced no non-zero phases")
	}
	// Without staggering, all phases are zero.
	rng = rand.New(rand.NewSource(4))
	flows, err = Generate(rng, g, GenConfig{NumFlows: 10, MinPeriodExp: 0, MaxPeriodExp: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if f.Phase != 0 {
			t.Fatalf("unexpected phase %d", f.Phase)
		}
	}
}

func TestAdaptBudget(t *testing.T) {
	cases := []struct {
		name   string
		budget []int
		hops   int
		want   []int
	}{
		{"empty stays empty", nil, 3, nil},
		{"same length copied", []int{3, 1, 2}, 3, []int{3, 1, 2}},
		{"longer route gets the minimum", []int{3, 2}, 4, []int{2, 2, 2, 2}},
		{"shorter route gets the minimum", []int{3, 1, 2}, 2, []int{1, 1}},
		{"shed budget stays shed", []int{1, 1}, 3, []int{1, 1, 1}},
	}
	for _, c := range cases {
		got := AdaptBudget(c.budget, c.hops)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: AdaptBudget(%v, %d) = %v, want %v",
				c.name, c.budget, c.hops, got, c.want)
		}
	}
	// The adapted budget never aliases the input, even at equal length.
	in := []int{2, 2}
	out := AdaptBudget(in, 2)
	out[0] = 9
	if in[0] != 2 {
		t.Error("AdaptBudget aliased its input")
	}
}
