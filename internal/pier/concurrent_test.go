package pier

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestPublishBatchStoresEverything(t *testing.T) {
	env := newTestEnv(t, 12, Config{Workers: 6})
	e := env.engines[0]

	var pubs []Pub
	for i := 0; i < 8; i++ {
		kw := fmt.Sprintf("word%d", i)
		pubs = append(pubs, Pub{"Inverted", Tuple{String(kw), Bytes([]byte("file-1"))}})
	}
	res, err := e.PublishBatchContext(context.Background(), pubs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages == 0 {
		t.Error("PublishBatch reported no traffic")
	}
	if res.Published != len(pubs) {
		t.Errorf("Published = %d, want %d", res.Published, len(pubs))
	}
	// On the zero-latency LocalNetwork each put may finish before the next
	// is handed out, so only the floor is deterministic; the latency-bearing
	// benchmark test asserts real overlap.
	if res.MaxInFlight < 1 {
		t.Errorf("max in-flight = %d, want >= 1", res.MaxInFlight)
	}
	for i := 0; i < 8; i++ {
		kw := fmt.Sprintf("word%d", i)
		tuples, _, err := env.engines[3].FetchContext(context.Background(), "Inverted", String(kw))
		if err != nil {
			t.Fatalf("fetch %s: %v", kw, err)
		}
		if len(tuples) != 1 {
			t.Errorf("fetch %s: got %d tuples, want 1", kw, len(tuples))
		}
	}
}

func TestPublishBatchReportsFirstError(t *testing.T) {
	env := newTestEnv(t, 8, Config{Workers: 4})
	e := env.engines[0]
	pubs := []Pub{
		{"Inverted", Tuple{String("good"), Bytes([]byte("f"))}},
		{"NoSuchTable", Tuple{String("bad")}},
		{"Inverted", Tuple{String("alsogood"), Bytes([]byte("f"))}},
	}
	res, err := e.PublishBatchContext(context.Background(), pubs, 4)
	if err == nil {
		t.Fatal("PublishBatch with an unknown table succeeded")
	}
	if res.Published != 2 {
		t.Errorf("Published = %d, want 2 (the valid entries)", res.Published)
	}
	// The valid entries must still have been attempted.
	if tuples, _, ferr := e.FetchContext(context.Background(), "Inverted", String("alsogood")); ferr != nil || len(tuples) != 1 {
		t.Errorf("entry after the failing one was not published: %v", ferr)
	}
}

// chainEnv publishes a corpus with one rare and two common keywords so the
// multi-key join has real pruning to do.
func chainEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	env := newTestEnv(t, 16, cfg)
	for i := 0; i < 30; i++ {
		env.publishFile(t, i%16, fmt.Sprintf("common artist track%02d", i))
	}
	env.publishFile(t, 0, "common artist rareterm")
	env.publishFile(t, 1, "common artist rareterm bonus")
	return env
}

func TestChainJoinConcurrentMatchesSequential(t *testing.T) {
	env := chainEnv(t, Config{OrderBySelectivity: true, Workers: 8})
	keys := []Value{String("common"), String("artist"), String("rareterm")}

	seq, _, err := env.engines[5].ChainJoinContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	conc, stats, err := env.engines[5].ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, got := valueSet(seq), valueSet(conc)
	if len(want) != len(got) {
		t.Fatalf("result mismatch: sequential %d values, concurrent %d", len(want), len(got))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("concurrent join lost %q", k)
		}
	}
	if stats.MaxInFlight < 1 {
		t.Errorf("MaxInFlight = %d, want >= 1", stats.MaxInFlight)
	}
}

func TestChainJoinConcurrentPrunesShipping(t *testing.T) {
	env := chainEnv(t, Config{OrderBySelectivity: false, Workers: 8})
	keys := []Value{String("common"), String("rareterm")}

	_, seqStats, err := env.engines[3].ChainJoinContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	conc, concStats, err := env.engines[3].ChainJoinConcurrentContext(context.Background(), "Inverted", keys, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(conc) != 2 {
		t.Fatalf("concurrent join returned %d values, want 2", len(conc))
	}
	// The naive chain ships the whole "common" posting list (32 entries);
	// ordering plus the Bloom pre-join must cut that to the candidates.
	if concStats.PostingShipped >= seqStats.PostingShipped {
		t.Errorf("PostingShipped: concurrent %d, naive sequential %d — no pruning",
			concStats.PostingShipped, seqStats.PostingShipped)
	}
	if concStats.PostingShipped > 4 {
		t.Errorf("PostingShipped = %d, want <= 4 after Bloom pre-join", concStats.PostingShipped)
	}
}

func TestChainJoinConcurrentSingleKey(t *testing.T) {
	env := chainEnv(t, Config{Workers: 8})
	vals, _, err := env.engines[2].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("rareterm")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Errorf("single-key join returned %d values, want 2", len(vals))
	}
}

// TestConcurrentPublishFetch hammers one engine with overlapping Publish
// and Fetch calls; run with -race to verify engine/node/store locking.
func TestConcurrentPublishFetch(t *testing.T) {
	env := newTestEnv(t, 10, Config{Workers: 8})
	e := env.engines[0]
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				kw := fmt.Sprintf("kw%d", i%4)
				fileID := []byte(fmt.Sprintf("file-%d-%d", g, i))
				if _, err := e.PublishContext(context.Background(), "Inverted", Tuple{String(kw), Bytes(fileID)}); err != nil {
					errs <- err
					return
				}
				if _, _, err := e.FetchContext(context.Background(), "Inverted", String(kw)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tuples, _, err := env.engines[7].FetchContext(context.Background(), "Inverted", String("kw0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 24 { // 8 goroutines x 3 publishes of kw0 each
		t.Errorf("kw0 posting list has %d entries, want 24", len(tuples))
	}
}
