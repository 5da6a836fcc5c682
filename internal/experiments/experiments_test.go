package experiments

import (
	"math"
	"sync"
	"testing"
	"time"

	"piersearch/internal/piersearch"
)

// sharedEnv builds one small study environment for all tests (expensive).
var (
	envOnce sync.Once
	envInst *StudyEnv
	envErr  error
)

func testEnv(t testing.TB) *StudyEnv {
	t.Helper()
	envOnce.Do(func() {
		envInst, envErr = NewStudyEnv(StudyConfig{Scale: 0.06, Vantages: 30, Seed: 2})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envInst
}

func TestStudyEnvShape(t *testing.T) {
	env := testEnv(t)
	if env.Lib.NumFiles() != env.Trace.TotalInstances() {
		t.Errorf("library holds %d files, trace has %d instances", env.Lib.NumFiles(), env.Trace.TotalInstances())
	}
	if len(env.Vantages) != 30 {
		t.Errorf("vantages = %d", len(env.Vantages))
	}
	if len(env.Matching) != len(env.Trace.Queries) {
		t.Errorf("matching sets = %d", len(env.Matching))
	}
}

func TestFigure4ShapePopularQueriesBiggerResults(t *testing.T) {
	env := testEnv(t)
	s := Figure4(env)
	if len(s.Points) < 3 {
		t.Fatalf("too few buckets: %d", len(s.Points))
	}
	// Correlation: higher replication -> larger result sets. Compare the
	// first and last buckets (x = avg replication, y = result size).
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if !(last.X > first.X && last.Y > first.Y) {
		t.Errorf("no positive correlation: first=%+v last=%+v", first, last)
	}
}

func TestFigure5UnionDominatesSingle(t *testing.T) {
	env := testEnv(t)
	series := Figure5(env)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	one, union := series[0], series[1]
	// CDF of single-node results lies above the union CDF at every x:
	// the union observes more results, so fewer queries sit at low counts.
	for i := range one.Points {
		if one.Points[i].Y < union.Points[i].Y-1e-9 {
			t.Errorf("at x=%v single CDF %.1f below union %.1f", one.Points[i].X, one.Points[i].Y, union.Points[i].Y)
		}
	}
}

func TestFigure6MonotoneInUnionSize(t *testing.T) {
	env := testEnv(t)
	series := Figure6(env)
	if len(series) != 5 {
		t.Fatalf("series = %d", len(series))
	}
	// At x=0 (zero results), more vantage points -> fewer empty queries.
	for i := 1; i < len(series); i++ {
		if series[i].YAt(0) > series[i-1].YAt(0)+1e-9 {
			t.Errorf("zero-result %% grew with more vantages: %s=%.1f > %s=%.1f",
				series[i].Name, series[i].YAt(0), series[i-1].Name, series[i-1].YAt(0))
		}
	}
}

func TestAggregatesMatchPaperDirection(t *testing.T) {
	env := testEnv(t)
	a := Aggregates(env)
	if a.PctZeroSingle <= a.PctZeroUnion {
		t.Errorf("union zero%% %.1f not below single %.1f", a.PctZeroUnion, a.PctZeroSingle)
	}
	if a.PctAtMost10Single <= a.PctAtMost10Union {
		t.Errorf("union <=10%% %.1f not below single %.1f", a.PctAtMost10Union, a.PctAtMost10Single)
	}
	// Paper: 41%/18% single, 27%/6% union, >=66% reduction. Shapes only:
	// a substantial fraction of queries see few results, and the union
	// removes most empty queries.
	if a.PctAtMost10Single < 15 || a.PctAtMost10Single > 75 {
		t.Errorf("<=10 results (single) = %.1f%%, want a substantial fraction", a.PctAtMost10Single)
	}
	if a.ZeroReductionPct < 40 {
		t.Errorf("zero-result reduction = %.1f%%, want >= 40%%", a.ZeroReductionPct)
	}
}

func TestFigure7RareSlowerThanPopular(t *testing.T) {
	env := testEnv(t)
	s := Figure7(env)
	if len(s.Points) < 3 {
		t.Fatalf("buckets = %d", len(s.Points))
	}
	smallest, largest := s.Points[0], s.Points[len(s.Points)-1]
	if smallest.Y <= largest.Y {
		t.Errorf("small result sets (%.0f results: %.1fs) not slower than large (%.0f results: %.1fs)",
			smallest.X, smallest.Y, largest.X, largest.Y)
	}
	// Shape: rare items several times slower than popular ones. (Absolute
	// values grow with network depth; the full-scale run lands in the
	// paper's 6s / 73s regime.)
	if smallest.Y < 2.5*largest.Y {
		t.Errorf("rare latency %.1fs not well above popular %.1fs", smallest.Y, largest.Y)
	}
	if smallest.Y < 10 {
		t.Errorf("rare-item latency %.1fs, want dynamic-query round waits to dominate", smallest.Y)
	}
	if largest.Y > 20 {
		t.Errorf("popular-item latency %.1fs, want seconds", largest.Y)
	}
}

func TestFigure8DiminishingReturns(t *testing.T) {
	s, err := Figure8(Figure8Config{Ultrapeers: 3000, Sources: 3, MaxTTL: 7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 7 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Monotone coverage, and marginal cost per new ultrapeer grows.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Y < s.Points[i-1].Y {
			t.Fatal("coverage decreased with TTL")
		}
	}
	firstCost := s.Points[1].X - s.Points[0].X
	lastCost := s.Points[len(s.Points)-1].X - s.Points[len(s.Points)-2].X
	firstGain := s.Points[1].Y - s.Points[0].Y
	lastGain := s.Points[len(s.Points)-1].Y - s.Points[len(s.Points)-2].Y
	if firstGain > 0 && lastGain > 0 {
		if lastCost/lastGain <= firstCost/firstGain {
			t.Errorf("no diminishing returns: early %.4f, late %.4f kmsgs/up", firstCost/firstGain, lastCost/lastGain)
		}
	}
}

func TestFigure9Anchors(t *testing.T) {
	env := testEnv(t)
	series := Figure9(env)
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for i, hp := range []float64{0.05, 0.15, 0.30} {
		got := series[i].YAt(0)
		if math.Abs(got-hp) > 0.01 {
			t.Errorf("%s at threshold 0 = %.3f, want ~%.2f", series[i].Name, got, hp)
		}
		final := series[i].Points[len(series[i].Points)-1].Y
		if final <= got {
			t.Errorf("%s did not increase with threshold", series[i].Name)
		}
	}
}

func TestFigure10Anchor23Percent(t *testing.T) {
	env := testEnv(t)
	s := Figure10(env)
	if s.YAt(0) != 0 {
		t.Errorf("threshold 0 publishes %.1f%%", s.YAt(0))
	}
	at1 := s.YAt(1)
	if at1 < 12 || at1 > 35 {
		t.Errorf("threshold 1 publishes %.1f%%, paper anchor is 23%%", at1)
	}
	// Monotone with diminishing increments.
	for i := 2; i < len(s.Points); i++ {
		if s.Points[i].Y < s.Points[i-1].Y {
			t.Fatal("publishing overhead decreased")
		}
	}
}

func TestFigure11And12Anchors(t *testing.T) {
	env := testEnv(t)
	qr := Figure11(env)
	for i, hp := range []float64{5, 15, 30} {
		at0 := qr[i].YAt(0)
		if math.Abs(at0-hp) > 0.5 {
			t.Errorf("QR at threshold 0 for horizon %v%% = %.1f, want ~%v", hp, at0, hp)
		}
		at1 := qr[i].YAt(1)
		if at1 < at0+15 {
			t.Errorf("QR jump at threshold 1 for horizon %v%%: %.1f -> %.1f, want sharp increase", hp, at0, at1)
		}
	}
	qdr := Figure12(env)
	for i := range qdr {
		if qdr[i].YAt(2) < qr[i].YAt(2) {
			t.Errorf("QDR below QR at threshold 2 for %s", qdr[i].Name)
		}
	}
	// Paper: threshold 2, horizon 15% -> QDR ~93%; allow a broad band.
	if got := qdr[1].YAt(2); got < 70 {
		t.Errorf("QDR(thr=2, horizon 15%%) = %.1f, want >= 70", got)
	}
}

func TestFigure13SchemeOrdering(t *testing.T) {
	env := testEnv(t)
	series := Figure13(env)
	byName := map[string]float64{}
	for _, s := range series {
		byName[s.Name] = s.YAt(50) // mid budget
	}
	if byName["Perfect"] < byName["SAM(15%)"]-1 {
		t.Errorf("Perfect %.1f below SAM %.1f", byName["Perfect"], byName["SAM(15%)"])
	}
	if byName["SAM(15%)"] <= byName["Random"] {
		t.Errorf("SAM %.1f not above Random %.1f", byName["SAM(15%)"], byName["Random"])
	}
	if byName["TF"] <= byName["Random"] || byName["TPF"] <= byName["Random"] {
		t.Errorf("TF %.1f / TPF %.1f not above Random %.1f", byName["TF"], byName["TPF"], byName["Random"])
	}
}

func TestFigure14And15(t *testing.T) {
	env := testEnv(t)
	f14 := Figure14(env)
	if len(f14) != 5 {
		t.Fatalf("figure 14 series = %d", len(f14))
	}
	for _, s := range f14 {
		if s.YAt(100) < s.YAt(0) {
			t.Errorf("%s QDR decreased with budget", s.Name)
		}
	}
	f15 := Figure15(env)
	if len(f15) != 4 {
		t.Fatalf("figure 15 series = %d", len(f15))
	}
	mid := func(name string) float64 {
		for _, s := range f15 {
			if s.Name == name {
				return s.YAt(50)
			}
		}
		return math.NaN()
	}
	if mid("SAM(100%)") < mid("SAM(5%)")-2 {
		t.Errorf("SAM(100%%) %.1f below SAM(5%%) %.1f", mid("SAM(100%)"), mid("SAM(5%)"))
	}
	if mid("SAM(5%)") <= mid("Random") {
		t.Errorf("SAM(5%%) %.1f not above Random %.1f", mid("SAM(5%)"), mid("Random"))
	}
}

func TestPostingListShippingRareCheaper(t *testing.T) {
	env := testEnv(t)
	res, err := PostingListShipping(env, 24, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != len(env.Trace.Queries) {
		t.Errorf("replayed %d queries", res.Queries)
	}
	if res.AvgShippedRare >= res.AvgShippedAll {
		t.Errorf("rare queries shipped %.1f >= average %.1f", res.AvgShippedRare, res.AvgShippedAll)
	}
	if res.Ratio < 1.5 {
		t.Errorf("ratio = %.2f, want rare queries several times cheaper", res.Ratio)
	}
}

func TestCrawlStudy(t *testing.T) {
	env := testEnv(t)
	c := CrawlStudy(env)
	if c.HostsSeen <= 0 || c.UltrapeersSeen <= 0 {
		t.Errorf("crawl summary = %+v", c)
	}
	if c.HostsSeen > env.Topo.NumHosts() {
		t.Errorf("crawl saw %d hosts of %d", c.HostsSeen, env.Topo.NumHosts())
	}
	if c.EstimatedDuration <= 0 || c.EstimatedDuration > time.Hour {
		t.Errorf("duration = %v", c.EstimatedDuration)
	}
}

func TestRunDeployment(t *testing.T) {
	res, err := RunDeployment(DeployConfig{
		Ultrapeers:     120,
		Hosts:          1200,
		HybridCount:    12,
		WarmupQueries:  60,
		MeasureQueries: 50,
		Strategy:       piersearch.StrategyJoin,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesPublished == 0 {
		t.Error("deployment published nothing")
	}
	if res.AvgPublishBytes <= 0 {
		t.Error("no publish bytes")
	}
	if res.GnutellaAnswered+res.PierAnswered+res.Unanswered != 50 {
		t.Errorf("accounting mismatch: %+v", res)
	}
	if res.PierAnswered > 0 {
		if res.AvgHybridLatency <= 30*time.Second {
			t.Errorf("hybrid latency %v not above the 30s timeout", res.AvgHybridLatency)
		}
		if res.AvgPierQueryBytes <= 0 {
			t.Error("no PIER query bytes measured")
		}
		if res.ReductionPct <= 0 {
			t.Errorf("zero-result reduction = %.1f%%, want positive", res.ReductionPct)
		}
	}
	if res.GnutellaAnswered > 0 && (res.AvgGnutellaLatency <= 0 || res.AvgGnutellaLatency > 30*time.Second) {
		t.Errorf("gnutella latency = %v", res.AvgGnutellaLatency)
	}
}
