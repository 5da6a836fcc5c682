package pier

import (
	"context"
	"fmt"
	"testing"
)

// Churn integration tests: the distributed query paths must degrade
// gracefully, not wedge, when nodes vanish between publish and query.

func TestChainJoinAfterOwnerChurn(t *testing.T) {
	env := newTestEnv(t, 40, Config{})
	env.publishFile(t, 0, "durable alpha beta")

	// Kill the primary owner of one keyword's posting list.
	key := keyID("Inverted", String("alpha"))
	owner, _, err := env.engines[0].Node().OwnerContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range env.engines {
		if e.Node().Info().ID == owner.ID {
			env.cluster.RemoveNode(i)
			env.engines = append(env.engines[:i], env.engines[i+1:]...)
			break
		}
	}

	// Replicas on the remaining closest nodes still answer the join.
	got, _, err := env.engines[5].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("alpha"), String("beta")}, "fileID", 0)
	if err != nil {
		t.Fatalf("join after owner churn: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("join after churn = %d results, want 1", len(got))
	}
}

func TestQueriesSurviveHeavyChurn(t *testing.T) {
	env := newTestEnv(t, 48, Config{})
	for i := 0; i < 12; i++ {
		env.publishFile(t, i%len(env.engines), fmt.Sprintf("churn survivor %02d", i))
	}
	// Remove a third of the cluster, highest indices first so engine and
	// node slices stay aligned.
	for i := 0; i < 16; i++ {
		idx := len(env.engines) - 1
		env.cluster.RemoveNode(idx)
		env.engines = env.engines[:idx]
	}
	got, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("churn"), String("survivor")}, "fileID", 0)
	if err != nil {
		t.Fatalf("join under churn: %v", err)
	}
	// Replication factor 3 against 33% departures: most results survive.
	if len(got) < 8 {
		t.Errorf("only %d/12 results survived 33%% churn", len(got))
	}
	// CacheSelect still works too.
	tuples, _, err := env.engines[1].CacheSelectContext(context.Background(), "InvertedCache", String("churn"), []string{"survivor"}, "fulltext", 0)
	if err != nil {
		t.Fatalf("cache select under churn: %v", err)
	}
	if len(tuples) < 8 {
		t.Errorf("cache plan found %d/12 after churn", len(tuples))
	}
}

func TestChainJoinConcurrentQueries(t *testing.T) {
	// The engine is shared state; concurrent queries must not interfere
	// (distinct QIDs, separate waiters).
	env := newTestEnv(t, 32, Config{})
	for i := 0; i < 8; i++ {
		env.publishFile(t, i%len(env.engines), fmt.Sprintf("parallel item%02d", i))
	}
	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			got, _, err := env.engines[w%len(env.engines)].ChainJoinConcurrentContext(context.Background(), "Inverted",
				[]Value{String("parallel"), String(fmt.Sprintf("item%02d", w%8))}, "fileID", 0)
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("worker %d: %d results", w, len(got))
			}
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestRepublishAfterChurnRestoresJoin(t *testing.T) {
	env := newTestEnv(t, 40, Config{})
	env.publishFile(t, 2, "restored gem")
	// Remove the two closest holders of the "restored" posting list.
	key := keyID("Inverted", String("restored"))
	closest, _, err := env.engines[0].Node().LookupContext(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, c := range closest {
		if removed == 2 {
			break
		}
		for i, e := range env.engines {
			if e.Node().Info().ID == c.ID && i != 2 {
				env.cluster.RemoveNode(i)
				env.engines = append(env.engines[:i], env.engines[i+1:]...)
				removed++
				break
			}
		}
	}
	// The publisher refreshes its replicas (maintenance cycle).
	var pub *Engine
	for _, e := range env.engines {
		if e.Node().Info().Addr == "node-2" {
			pub = e
		}
	}
	if pub == nil {
		t.Skip("publisher itself was among removed holders")
	}
	if n, _ := pub.Node().Republish(); n == 0 {
		t.Log("nothing held locally to republish; relying on surviving replicas")
	}
	got, _, err := env.engines[0].ChainJoinConcurrentContext(context.Background(), "Inverted", []Value{String("restored"), String("gem")}, "fileID", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("join after republish = %d results", len(got))
	}
}
