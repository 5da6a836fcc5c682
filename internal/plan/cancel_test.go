package plan_test

// Cancellation acceptance tests over a dht.LocalNetwork with wall-clock
// link latency: a canceled wide-area join must return within one RPC round
// of the cancel and leave no goroutines behind (the paper's 30 s chain
// timeout is far too slow a backstop for an interactive client that
// gave up).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"piersearch/internal/dht"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
	"piersearch/internal/plan"
	"piersearch/internal/simnet"
)

const oneWay = 60 * time.Millisecond

// newRTEnv seeds a cluster of engines with the given Workers at zero
// latency, then turns on the wide-area delay for the measured phase.
func newRTEnv(t testing.TB, workers int) []*pier.Engine {
	t.Helper()
	c, err := dht.NewCluster(12, 5, dht.Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	var engines []*pier.Engine
	for _, node := range c.Nodes {
		e := pier.NewEngine(node, pier.Config{OrderBySelectivity: true, Workers: workers})
		piersearch.RegisterSchemas(e)
		engines = append(engines, e)
	}
	for i := 0; i < 12; i++ {
		f := piersearch.File{
			Name: fmt.Sprintf("omega sigma track%02d.mp3", i),
			Size: int64(2000 + i), Host: fmt.Sprintf("10.4.0.%d", i), Port: 6346,
		}
		pub := piersearch.NewPublisher(engines[i%len(engines)], piersearch.ModeBoth, piersearch.Tokenizer{})
		if _, err := pub.PublishFile(f); err != nil {
			t.Fatal(err)
		}
	}
	c.Net.SetLatency(simnet.Constant(oneWay))
	return engines
}

// settleGoroutines waits for the goroutine count to drop back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d > baseline %d after canceled join", runtime.NumGoroutine(), base)
}

func TestChainJoinCancelPromptNoLeak(t *testing.T) {
	engines := newRTEnv(t, 0)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	canceledAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(oneWay / 2) // mid-flight: inside the probe fan-out's first leg
		canceledAt <- time.Now()
		cancel()
	}()

	op := &plan.ChainJoin{
		Engine:  engines[2],
		Table:   piersearch.TableInverted,
		Keys:    []pier.Value{pier.String("omega"), pier.String("sigma"), pier.String("track00")},
		JoinCol: "fileID",
	}
	err := op.Open(ctx)
	returned := time.Now()
	op.Close()

	if err == nil {
		t.Fatal("canceled chain join succeeded")
	}
	if !errors.Is(err, plan.ErrCanceled) {
		t.Errorf("error = %v, want plan.ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled in chain", err)
	}
	// Promptness: back within one RPC round (2 x one-way) of the cancel.
	if elapsed := returned.Sub(<-canceledAt); elapsed > 2*oneWay {
		t.Errorf("join returned %v after cancel, want <= one RPC round (%v)", elapsed, 2*oneWay)
	}
	settleGoroutines(t, base)
}

func TestQueryContextCancelMidStream(t *testing.T) {
	engines := newRTEnv(t, 1)
	base := runtime.NumGoroutine()

	search := piersearch.NewSearch(engines[3], piersearch.Tokenizer{})
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := search.QueryContext(ctx, piersearch.Query{Text: "omega sigma", Strategy: piersearch.StrategyJoin})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// First result arrives, then the client walks away mid-stream.
	if _, err := rs.Next(); err != nil {
		cancel()
		t.Fatalf("first Next: %v", err)
	}
	cancel()
	start := time.Now()
	for {
		_, err := rs.Next()
		if err == nil {
			continue // buffered batch entries may still surface
		}
		if !errors.Is(err, plan.ErrCanceled) {
			t.Errorf("post-cancel Next = %v, want plan.ErrCanceled", err)
		}
		break
	}
	if elapsed := time.Since(start); elapsed > 2*oneWay {
		t.Errorf("stream took %v to observe cancel, want <= %v", elapsed, 2*oneWay)
	}
	rs.Close()
	settleGoroutines(t, base)
}

func TestDeadlineExpiresJoin(t *testing.T) {
	engines := newRTEnv(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), oneWay/2)
	defer cancel()
	_, _, err := engines[1].ChainJoinConcurrentContext(ctx, piersearch.TableInverted,
		[]pier.Value{pier.String("omega"), pier.String("sigma")}, "fileID", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadlined join error = %v, want context.DeadlineExceeded", err)
	}
}
