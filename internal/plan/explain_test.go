package plan_test

import (
	"context"
	"strings"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
)

func newExplainEnv(t *testing.T) *pier.Engine {
	t.Helper()
	cluster, err := dht.NewCluster(8, 1, dht.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*pier.Engine, len(cluster.Nodes))
	for i, node := range cluster.Nodes {
		engines[i] = pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(engines[i])
	}
	pub := piersearch.NewPublisher(engines[1], piersearch.ModeBoth, piersearch.Tokenizer{})
	for _, name := range []string{"alpha beta one.mp3", "alpha beta two.mp3", "alpha gamma.mp3"} {
		if _, err := pub.PublishFile(piersearch.File{Name: name, Size: 100, Host: "10.0.0.9", Port: 6346}); err != nil {
			t.Fatal(err)
		}
	}
	return engines[0]
}

func TestExplainRendersPlanShape(t *testing.T) {
	engine := newExplainEnv(t)
	planner := plan.Planner{Engine: engine, Catalog: piersearch.Catalog()}

	compiled, err := planner.Plan(plan.Query{
		Terms:    []string{"alpha", "beta"},
		Strategy: plan.StrategyJoin,
		Limit:    50,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := compiled.Explain()
	for _, want := range []string{
		"Limit(n=50)",
		"DHTFetch(Item",
		"ChainJoin(Inverted, keys=[alpha beta], joinCol=fileID, limit=50)",
		"└─ ", // tree drawing
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	// Unexecuted: every operator reports zero tuples.
	if strings.Count(out, "tuples=0") != 3 {
		t.Errorf("unexecuted plan should show tuples=0 on all 3 operators:\n%s", out)
	}

	cachePlan, err := planner.Plan(plan.Query{Terms: []string{"alpha", "beta"}, Strategy: plan.StrategyCache})
	if err != nil {
		t.Fatal(err)
	}
	cacheOut := cachePlan.Explain()
	for _, want := range []string{"CacheSelect(InvertedCache, key=alpha, filters=[beta], joinCol=1, limit=0)", "└─ CacheSelect"} {
		if !strings.Contains(cacheOut, want) {
			t.Errorf("cache explain missing %q:\n%s", want, cacheOut)
		}
	}
}

func TestExplainAfterExecutionShowsStats(t *testing.T) {
	engine := newExplainEnv(t)
	planner := plan.Planner{Engine: engine, Catalog: piersearch.Catalog()}
	compiled, err := planner.Plan(plan.Query{Terms: []string{"alpha", "beta"}, Strategy: plan.StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := compiled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("%d tuples, want 2", len(tuples))
	}
	out := compiled.Explain()
	if !strings.Contains(out, "Limit(n=0) [tuples=2]") {
		t.Errorf("executed root should report 2 tuples:\n%s", out)
	}
	if !strings.Contains(out, "msgs=") || !strings.Contains(out, "bytes=") {
		t.Errorf("executed plan should report traffic:\n%s", out)
	}
}
