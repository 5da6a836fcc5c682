package plan_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
)

// sliceOp is a minimal Operator over in-memory tuples, for unit-testing
// the composing operators without a cluster.
type sliceOp struct {
	tuples []pier.Tuple
	pos    int
	open   bool
	closes int
	stats  plan.OpStats
}

func (s *sliceOp) Open(ctx context.Context) error {
	s.open = true
	s.pos = 0
	return nil
}

func (s *sliceOp) Next() (pier.Tuple, error) {
	if !s.open {
		return nil, plan.ErrNotOpen
	}
	if s.pos >= len(s.tuples) {
		return nil, plan.ErrDone
	}
	t := s.tuples[s.pos]
	s.pos++
	s.stats.Tuples++
	return t, nil
}

func (s *sliceOp) Close() error {
	s.open = false
	s.closes++
	return nil
}

func (s *sliceOp) Stats() plan.OpStats { return s.stats }

func intRows(vals ...int64) []pier.Tuple {
	out := make([]pier.Tuple, len(vals))
	for i, v := range vals {
		out[i] = pier.Tuple{pier.Int(v), pier.String(fmt.Sprintf("row-%d", v))}
	}
	return out
}

func drainAll(t *testing.T, op plan.Operator) []pier.Tuple {
	t.Helper()
	if err := op.Open(context.Background()); err != nil {
		t.Fatalf("open: %v", err)
	}
	var out []pier.Tuple
	if err := plan.Drain(op, func(tp pier.Tuple) { out = append(out, tp) }); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := op.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out
}

func TestOperatorContract(t *testing.T) {
	src := &sliceOp{tuples: intRows(1, 2)}
	op := &plan.Limit{Input: src}

	// Next before Open.
	if _, err := op.Next(); !errors.Is(err, plan.ErrNotOpen) {
		t.Errorf("Next before Open = %v, want ErrNotOpen", err)
	}
	if err := op.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := op.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	// ErrDone persists.
	for i := 0; i < 3; i++ {
		if _, err := op.Next(); !errors.Is(err, plan.ErrDone) {
			t.Errorf("exhausted Next = %v, want ErrDone", err)
		}
	}
	// Close idempotent; Next after Close is ErrNotOpen.
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	if err := op.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if _, err := op.Next(); !errors.Is(err, plan.ErrNotOpen) {
		t.Errorf("Next after Close = %v, want ErrNotOpen", err)
	}
}

func TestLimitStopsUpstreamPulls(t *testing.T) {
	src := &sliceOp{tuples: intRows(2, 2, 4, 4, 6, 8)}
	tree := &plan.Limit{N: 2, Input: src}
	out := drainAll(t, tree)
	if len(out) != 2 || out[0][1].Text() != "row-2" || out[1][1].Text() != "row-2" {
		t.Fatalf("tree output = %#v", out)
	}
	// Limit stopped pulling: the source emitted exactly N tuples.
	if src.stats.Tuples != 2 {
		t.Errorf("limit did not stop upstream pulls: source emitted %d", src.stats.Tuples)
	}
	if src.closes != 1 {
		t.Errorf("source closed %d times", src.closes)
	}
	// Walk sees the whole tree.
	n := 0
	plan.Walk(tree, func(plan.Operator) { n++ })
	if n != 2 {
		t.Errorf("Walk visited %d operators, want 2", n)
	}
}

func TestLimitZeroMeansUnlimited(t *testing.T) {
	out := drainAll(t, &plan.Limit{Input: &sliceOp{tuples: intRows(1, 2, 3)}, N: 0})
	if len(out) != 3 {
		t.Fatalf("Limit{N:0} yielded %d tuples, want 3", len(out))
	}
}

func TestCanceledContextTagsErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := newClusterEnv(t, 8)
	op := &plan.CacheSelect{
		Engine: env.engines[0], Table: "InvertedCache", Key: pier.String("alpha"),
		Filters: []string{"beta"}, TextCol: "fulltext",
	}
	err := op.Open(ctx)
	if !errors.Is(err, plan.ErrCanceled) {
		t.Errorf("Open under canceled ctx = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
}

// clusterEnv is a LocalNetwork cluster with PIERSearch deployed.
type clusterEnv struct {
	engines []*pier.Engine
}

func newClusterEnv(t testing.TB, n int) *clusterEnv {
	t.Helper()
	cluster, err := dht.NewCluster(n, 7, dht.Config{})
	if err != nil {
		t.Fatal(err)
	}
	env := &clusterEnv{}
	for _, node := range cluster.Nodes {
		e := pier.NewEngine(node, pier.Config{OrderBySelectivity: true})
		piersearch.RegisterSchemas(e)
		env.engines = append(env.engines, e)
	}
	for i := 0; i < 12; i++ {
		f := piersearch.File{
			Name: fmt.Sprintf("alpha beta track%02d.mp3", i),
			Size: int64(1000 + i), Host: fmt.Sprintf("10.3.0.%d", i), Port: 6346,
		}
		pub := piersearch.NewPublisher(env.engines[i%n], piersearch.ModeBoth, piersearch.Tokenizer{})
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

func fileIDs(tuples []pier.Tuple) map[string]bool {
	out := map[string]bool{}
	for _, tp := range tuples {
		out[tp[0].Key()] = true
	}
	return out
}

// runPlan compiles q with planner and runs it to completion.
func runPlan(t *testing.T, planner plan.Planner, q plan.Query) []pier.Tuple {
	t.Helper()
	compiled, err := planner.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	out, err := compiled.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPlannerStrategiesAgree(t *testing.T) {
	env := newClusterEnv(t, 20)
	planner := plan.Planner{Engine: env.engines[4], Catalog: piersearch.Catalog()}

	run := func(q plan.Query) []pier.Tuple {
		t.Helper()
		return runPlan(t, planner, q)
	}

	terms := []string{"alpha", "beta"}
	joinOut := run(plan.Query{Terms: terms, Strategy: plan.StrategyJoin})
	cacheOut := run(plan.Query{Terms: terms, Strategy: plan.StrategyCache})
	if len(joinOut) != 12 {
		t.Fatalf("join plan returned %d items, want 12", len(joinOut))
	}
	j, c := fileIDs(joinOut), fileIDs(cacheOut)
	if len(j) != len(c) {
		t.Fatalf("join %d fileIDs, cache %d", len(j), len(c))
	}
	for id := range j {
		if !c[id] {
			t.Fatalf("fileID in join but not cache plan")
		}
	}

	// A catalog without an item table stops at single-column fileID tuples.
	idsCatalog := piersearch.Catalog()
	idsCatalog.ItemTable = ""
	idsOnly := runPlan(t, plan.Planner{Engine: env.engines[4], Catalog: idsCatalog}, plan.Query{Terms: terms, Strategy: plan.StrategyJoin})
	if len(idsOnly) != 12 || len(idsOnly[0]) != 1 {
		t.Fatalf("ID-only output = %d tuples x %d cols", len(idsOnly), len(idsOnly[0]))
	}

	// Limit is pushed into the match phase and caps the output.
	limited := run(plan.Query{Terms: terms, Strategy: plan.StrategyJoin, Limit: 3})
	if len(limited) != 3 {
		t.Fatalf("limit 3 returned %d", len(limited))
	}

	// Match stats surface the match count and the matching-phase bytes.
	compiled, err := planner.Plan(plan.Query{Terms: terms, Strategy: plan.StrategyJoin})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compiled.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := compiled.Match.Stats().Tuples; got != 12 {
		t.Errorf("match tuples = %d, want 12", got)
	}
	total := plan.TotalStats(compiled.Root)
	matchBytes := plan.TotalStats(compiled.Match).Bytes
	if matchBytes <= 0 || matchBytes >= total.Bytes {
		t.Errorf("match bytes %d not within total %d", matchBytes, total.Bytes)
	}
}

// TestCacheSelectEmitsEachJoinValueOnce pins the cache plan's match
// operator: an owner reply that repeats a fileID (two InvertedCache
// postings of one fileID under different names) yields that fileID once,
// in reply order.
func TestCacheSelectEmitsEachJoinValueOnce(t *testing.T) {
	env := newClusterEnv(t, 8)
	ctx := context.Background()
	dup := pier.Bytes([]byte("fileid-dup-0000000000"))
	for _, tp := range []pier.Tuple{
		{pier.String("gamma"), dup, pier.String("gamma delta one.mp3")},
		{pier.String("gamma"), pier.Bytes([]byte("fileid-solo-000000000")), pier.String("gamma delta solo.mp3")},
		{pier.String("gamma"), dup, pier.String("gamma delta two.mp3")},
	} {
		if _, err := env.engines[1].PublishContext(ctx, piersearch.TableInvertedCache, tp); err != nil {
			t.Fatal(err)
		}
	}
	tuples, _, err := env.engines[2].CacheSelectContext(ctx, piersearch.TableInvertedCache, pier.String("gamma"), []string{"delta"}, "fulltext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 3 {
		t.Fatalf("fixture: owner replied %d tuples, want 3 (one fileID twice)", len(tuples))
	}

	catalog := piersearch.Catalog()
	catalog.ItemTable = ""
	planner := plan.Planner{Engine: env.engines[2], Catalog: catalog}
	compiled, err := planner.Plan(plan.Query{Terms: []string{"gamma", "delta"}, Strategy: plan.StrategyCache})
	if err != nil {
		t.Fatal(err)
	}
	out, err := compiled.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tp := range out {
		if len(tp) != 1 {
			t.Fatalf("match emitted a %d-column tuple, want the join column alone", len(tp))
		}
		if seen[tp[0].Key()] {
			t.Fatalf("fileID %q emitted twice", tp[0].Key())
		}
		seen[tp[0].Key()] = true
	}
	if len(out) != 2 || out[0][0].Key() != tuples[0][1].Key() {
		t.Errorf("match emitted %d fileIDs (first %v), want 2 in reply order", len(out), out)
	}
	if got := compiled.Match.Stats().Tuples; got != 2 {
		t.Errorf("match tuples = %d, want 2", got)
	}
}

// TestCacheSelectRejectsNarrowReply pins that a peer's reply tuple with
// no join column fails the query with an error rather than a panic. Every
// node's cache handler is replaced by one that answers a one-column tuple.
func TestCacheSelectRejectsNarrowReply(t *testing.T) {
	env := newClusterEnv(t, 8)
	// pier's cache reply frame: format version 2, an empty error string,
	// the tuple count, then each tuple's encoding as a byte string.
	frame := codec.AppendString([]byte{2}, "")
	frame = codec.AppendUvarint(frame, 1)
	frame = codec.AppendBytes(frame, pier.Tuple{pier.String("alpha")}.Encode(nil))
	for _, e := range env.engines {
		e.Node().RegisterApp("pier.cache", func(dht.NodeInfo, []byte) []byte { return frame })
	}
	planner := plan.Planner{Engine: env.engines[0], Catalog: piersearch.Catalog()}
	compiled, err := planner.Plan(plan.Query{Terms: []string{"alpha", "beta"}, Strategy: plan.StrategyCache})
	if err != nil {
		t.Fatal(err)
	}
	_, err = compiled.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "reply tuple has 1 columns, join col is 1") {
		t.Fatalf("narrow reply: err = %v, want the column-count error", err)
	}
}

func TestPlannerErrors(t *testing.T) {
	env := newClusterEnv(t, 8)
	planner := plan.Planner{Engine: env.engines[0], Catalog: piersearch.Catalog()}
	if _, err := planner.Plan(plan.Query{}); err == nil {
		t.Error("empty query accepted")
	}
	noCache := planner
	noCache.Catalog.CacheTable = ""
	if _, err := noCache.Plan(plan.Query{Terms: []string{"x"}, Strategy: plan.StrategyCache}); err == nil {
		t.Error("cache strategy without cache table accepted")
	}
	// Auto falls back to join without a cache table.
	compiled, err := noCache.Plan(plan.Query{Terms: []string{"alpha"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := compiled.Match.(*plan.ChainJoin); !ok {
		t.Errorf("auto strategy without cache table compiled %T, want ChainJoin", compiled.Match)
	}
}
