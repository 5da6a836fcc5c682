package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"piersearch/internal/piersearch"
	"piersearch/internal/service"
)

// clients is the closed loop's width: one service connection per core of
// the 2-core box the bounds were measured on, each sending its next op
// when the previous one completes.
const clients = 2

// phase is what one closed-loop pass over an op list measured.
type phase struct {
	attempted, failed int
	firstFailure      string
	stale             int // right answers that missed an acked publish
	elapsed           time.Duration
	cpu               time.Duration // user+sys of the whole process, generator included
	mallocs           uint64

	queryMs, ttfrMs, publishMs []float64 // sorted
	joinMs, cacheMs            []float64 // queryMs split by plan, sorted
	// DHT traffic, from the stats shipped in Done, of the counted ops: the
	// first runPhase was told to count, or all of them.
	msgs, bytes          int64
	counted              int
	queries, publishes   int
	results              int64
	cacheHits, coalesced int64
	fanoutReads, shipped int64
	published            []*instance // in completion order per client
}

func (p *phase) ops() int { return p.attempted - p.failed }

// runPhase drives ops through the query service in a closed loop until the
// list ends or window elapses (window 0 = no clock). rec, when non-nil,
// gets one span per op.
//
// Traffic is counted over the first count ops of the list (0 = all). A
// run's caches fill as it goes, so traffic per op falls with every op: over
// however many ops fit the window it would read higher on a slow run, and
// a noisy second would show as messages. Over a fixed head of the list it
// is the same ops every run.
func runPhase(ctx context.Context, addr string, corp *corpus, ops []op, window time.Duration, count int, rec *recorder) (*phase, error) {
	if count == 0 {
		count = len(ops)
	}
	conns := make([]*service.Client, clients)
	for i := range conns {
		conns[i] = service.Dial(addr)
		defer conns[i].Close()
	}
	// Dial outside the measured region: the first call on a client pays
	// the TCP and mux set-up.
	for _, c := range conns {
		if _, err := c.Explain(ctx, piersearch.Query{Text: "dial", Limit: 1}); err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs0 := mem.Mallocs
	cpu0 := cpuTime()
	start := time.Now()

	var next atomic.Int64
	tallies := make([]phase, clients) // one per client, merged when they stop
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(c *service.Client, t *phase) {
			defer wg.Done()
			for ctx.Err() == nil {
				if window > 0 && time.Since(start) >= window {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				t.do(ctx, c, corp, &ops[i], i, i < count, rec)
			}
		}(conns[i], &tallies[i])
	}
	wg.Wait()

	p := &phase{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&mem)
	p.mallocs = mem.Mallocs - mallocs0
	for i := range tallies {
		p.merge(&tallies[i])
	}
	for _, s := range [][]float64{p.queryMs, p.ttfrMs, p.publishMs, p.joinMs, p.cacheMs} {
		sort.Float64s(s)
	}
	return p, ctx.Err()
}

func (p *phase) merge(t *phase) {
	p.attempted += t.attempted
	p.failed += t.failed
	p.stale += t.stale
	if p.firstFailure == "" {
		p.firstFailure = t.firstFailure
	}
	p.queryMs = append(p.queryMs, t.queryMs...)
	p.ttfrMs = append(p.ttfrMs, t.ttfrMs...)
	p.publishMs = append(p.publishMs, t.publishMs...)
	p.joinMs = append(p.joinMs, t.joinMs...)
	p.cacheMs = append(p.cacheMs, t.cacheMs...)
	p.msgs += t.msgs
	p.bytes += t.bytes
	p.counted += t.counted
	p.queries += t.queries
	p.publishes += t.publishes
	p.results += t.results
	p.cacheHits += t.cacheHits
	p.coalesced += t.coalesced
	p.fanoutReads += t.fanoutReads
	p.shipped += t.shipped
	p.published = append(p.published, t.published...)
}

func (t *phase) fail(o *op, why string) {
	t.failed++
	if t.firstFailure == "" {
		what := "query " + strconv.Quote(o.query.text)
		if o.isPublish() {
			what = "publish " + strconv.Quote(o.file.Name)
		}
		t.firstFailure = what + ": " + why
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do runs one op and checks it. An op that errors, is refused, or returns
// a wrong answer is a failed op; its latency is not a sample. counted says
// whether its traffic is.
func (t *phase) do(ctx context.Context, c *service.Client, corp *corpus, o *op, id int, counted bool, rec *recorder) {
	t.attempted++
	if o.isPublish() {
		inst := corp.add(o.file, o.tokens, 0)
		start := time.Now()
		stats, err := c.Publish(ctx, o.file, piersearch.ModeBoth)
		end := time.Now()
		rec.span("service.publish", id, "", start, end)
		if err != nil {
			t.fail(o, err.Error())
			return
		}
		corp.ack(inst)
		if want := 1 + 2*len(o.tokens); stats.Tuples != want {
			t.fail(o, fmt.Sprintf("%d tuples stored, want %d", stats.Tuples, want))
			return
		}
		t.publishes++
		t.publishMs = append(t.publishMs, ms(end.Sub(start)))
		t.count(counted, stats.Messages, stats.Bytes)
		t.published = append(t.published, inst)
		return
	}

	before := corp.count(o.query, o.strategy, queryLimit)
	start := time.Now()
	got, first, stats, err := drain(c.Query(ctx, o.request()))
	end := time.Now()
	rec.span("service.query", id, "", start, end)
	if err != nil {
		t.fail(o, err.Error())
		return
	}
	wrong, stale := corp.check(o.query, o.strategy, queryLimit, before, got)
	if wrong != "" {
		t.fail(o, wrong)
		return
	}
	if stale {
		t.stale++
	}
	t.queries++
	lat := ms(end.Sub(start))
	t.queryMs = append(t.queryMs, lat)
	if o.strategy == piersearch.StrategyJoin {
		t.joinMs = append(t.joinMs, lat)
	} else {
		t.cacheMs = append(t.cacheMs, lat)
	}
	if len(got) > 0 {
		t.ttfrMs = append(t.ttfrMs, ms(first.Sub(start)))
	}
	t.count(counted, stats.Messages, stats.Bytes)
	t.results += int64(len(got))
	t.cacheHits += int64(stats.CacheHits)
	t.coalesced += int64(stats.Coalesced)
	t.fanoutReads += int64(stats.FanoutReads)
	t.shipped += int64(stats.PostingShipped)
}

func (t *phase) count(counted bool, msgs, bytes int) {
	if counted {
		t.counted++
		t.msgs += int64(msgs)
		t.bytes += int64(bytes)
	}
}

// drain consumes a result stream to ErrDone and closes it. first is when
// the first result arrived.
func drain(rs *piersearch.ResultStream, err error) (got []piersearch.Result, first time.Time, stats piersearch.SearchStats, _ error) {
	if err != nil {
		return nil, first, stats, err
	}
	defer rs.Close()
	for {
		r, err := rs.Next()
		if errors.Is(err, piersearch.ErrDone) {
			return got, first, rs.Stats(), nil
		}
		if err != nil {
			return nil, first, stats, err
		}
		if len(got) == 0 {
			first = time.Now()
		}
		got = append(got, r)
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
