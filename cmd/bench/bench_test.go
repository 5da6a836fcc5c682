package main

import (
	"context"
	"fmt"
	"regexp"
	"runtime"
	"testing"
	"time"

	"piersearch/internal/piersearch"
)

// smokeOptions is the benchmark at a size that runs in seconds: the same
// code paths, 8 nodes, 300 files, 200 measured ops per workload.
func smokeOptions(t *testing.T) options {
	return options{
		seed:    1,
		seconds: 60, // the op cap ends the phase, not the clock
		maxOps:  200,
		scratch: t.TempDir(),
		sz:      sizes{nodes: 8, files: 300, queries: 4000, ops: benchSizes.ops, counted: benchSizes.counted, setups: 1, quick: true},
	}
}

// TestSmoke runs every workload untraced and traced and holds the output
// to BENCHMARK.json: no failed op, exactly the named metrics with their
// units, and nothing left running or open afterwards.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	listed := map[string]string{}
	for _, w := range bf.Workloads {
		listed[w.Name] = w.Why
	}
	for _, w := range workloads {
		if why, ok := listed[w.name]; !ok {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		} else if why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says why %q, the benchmark %q", w.name, why, w.why)
		}
	}
	if len(listed) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(listed), len(workloads))
	}

	goroutines, fds := runtime.NumGoroutine(), openFDs()
	ctx := context.Background()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			opt := smokeOptions(t)
			opt.trace = traced
			specs := bf.EndToEnd
			if traced {
				specs = bf.PerLayer
			}
			res, err := runWorkload(ctx, w, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < opt.maxOps {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed: %s", w.name, traced, res.Correct, res.Failed, res.Attempted, res.FirstFailure)
			}
			for _, spec := range specs {
				m, ok := res.Metrics[spec.Name]
				switch {
				case !nameRE.MatchString(spec.Name):
					t.Errorf("metric name %q breaks the name grammar", spec.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s is not reported", w.name, traced, spec.Name)
				case m.Unit != spec.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, spec.Name, m.Unit, spec.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, spec.Name, m.Value)
				}
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(specs))
			}
		}
	}

	// Teardown closed every transport, server, store and session; their
	// goroutines and descriptors go as the kernel and scheduler get to it.
	deadline := time.Now().Add(5 * time.Second)
	for (runtime.NumGoroutine() > goroutines || openFDs() > fds) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines {
		t.Errorf("%d goroutines after teardown, %d before", g, goroutines)
	}
	if f := openFDs(); f > fds {
		t.Errorf("%d open descriptors after teardown, %d before", f, fds)
	}
}

func openFDs() int {
	fds, _ := socketFDs()
	return fds
}

// TestOracle checks the checker: right answers pass, and each kind of
// wrong answer is caught.
func TestOracle(t *testing.T) {
	c := newCorpus(1, 300, 2000)
	var q queryText
	for _, cand := range c.queries {
		join, cache := c.count(cand, piersearch.StrategyJoin, queryLimit), c.count(cand, piersearch.StrategyCache, queryLimit)
		if len(cand.tokens) == 2 && join.must > absentSlack+1 && cache.must < queryLimit {
			q = cand
			break
		}
	}
	if q.text == "" {
		t.Fatal("no two-term query with a few but under 50 matches in the corpus")
	}
	for _, strategy := range []piersearch.Strategy{piersearch.StrategyJoin, piersearch.StrategyCache} {
		var right []piersearch.Result
		for _, inst := range c.instances {
			if inst.matches(q.tokens, strategy) && len(right) < queryLimit {
				right = append(right, piersearch.Result{File: inst.file, FileID: inst.id})
			}
		}
		before := c.count(q, strategy, queryLimit)
		if before.must != len(right) || len(right) == 0 {
			t.Fatalf("%v: count says %d must match, a scan finds %d", strategy, before.must, len(right))
		}
		if wrong, stale := c.check(q, strategy, queryLimit, before, right); wrong != "" || stale {
			t.Errorf("%v: the right answer is judged %q, stale=%v", strategy, wrong, stale)
		}
		if wrong, _ := c.check(q, strategy, queryLimit, before, right[1:]); wrong == "" {
			t.Errorf("%v: an answer one result short passes", strategy)
		}
		twice := append(append([]piersearch.Result(nil), right[1:]...), right[1])
		if wrong, _ := c.check(q, strategy, queryLimit, before, twice); wrong == "" {
			t.Errorf("%v: a result returned twice passes", strategy)
		}
		var other *instance
		for _, inst := range c.instances {
			if !inst.matches(q.tokens, strategy) {
				other = inst
				break
			}
		}
		foreign := append(append([]piersearch.Result(nil), right[1:]...), piersearch.Result{File: other.file, FileID: other.id})
		if wrong, _ := c.check(q, strategy, queryLimit, before, foreign); wrong == "" {
			t.Errorf("%v: a result that does not match passes", strategy)
		}

		// A publish in flight may show, or cost a full answer a slot; with
		// slots to spare it costs nothing. Once acked, an answer without
		// it is stale, not wrong.
		pub := publishOp(piersearch.Tokenizer{}, q.text+" fresh0000001.mp3", 1)
		inst := c.add(pub.file, pub.tokens, 0)
		with := append(append([]piersearch.Result(nil), right...), piersearch.Result{File: inst.file, FileID: inst.id})
		if wrong, _ := c.check(q, strategy, queryLimit, before, with); wrong != "" {
			t.Errorf("%v: an answer holding an in-flight publish is judged %q", strategy, wrong)
		}
		if wrong, _ := c.check(q, strategy, queryLimit, before, right[1:]); wrong == "" {
			t.Errorf("%v: an answer short of a placed file passes because a publish is in flight", strategy)
		}
		if wrong, stale := c.check(q, strategy, len(right), before, right[1:]); wrong != "" || !stale {
			t.Errorf("%v: a full answer an in-flight publish cost a slot is judged %q, stale=%v", strategy, wrong, stale)
		}
		c.ack(inst)
		if wrong, stale := c.check(q, strategy, queryLimit, c.count(q, strategy, queryLimit), right); wrong != "" || !stale {
			t.Errorf("%v: an answer missing an acked publish is judged %q, stale=%v", strategy, wrong, stale)
		}

		// Many acked publishes of a hot text allow no shortfall: an empty
		// answer fails, and so does one short by more than the allowance
		// for cached absences.
		for i := 2; i < 100; i++ {
			pub := publishOp(piersearch.Tokenizer{}, fmt.Sprintf("%s fresh%07d.mp3", q.text, i), i)
			c.ack(c.add(pub.file, pub.tokens, 0))
		}
		now := c.count(q, strategy, queryLimit)
		if wrong, _ := c.check(q, strategy, queryLimit, now, nil); wrong == "" {
			t.Errorf("%v: an empty answer passes after %d acked publishes", strategy, now.acked)
		}
		if wrong, _ := c.check(q, strategy, len(right), now, right[:len(right)-absentSlack-1]); wrong == "" {
			t.Errorf("%v: a full answer %d short passes with nothing in flight", strategy, absentSlack+1)
		}
		c.reset()
		if got := c.count(q, strategy, queryLimit); got.must != before.must || got.extra != 0 {
			t.Errorf("%v: after reset count = %+v, before the publish %+v", strategy, got, before)
		}
	}
}
