package pier

// Owner-side tests: the chain step, the InvertedCache scan and the probe
// handlers run here on postings placed straight into one node's store,
// the way a remote peer's STORE leaves them, with no routing in between.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"piersearch/internal/dht"
	"piersearch/internal/hotcache"
)

// newOwner returns the engine of a one-node DHT, which owns every key.
func newOwner(tb testing.TB) *Engine {
	tb.Helper()
	cluster, err := dht.NewCluster(1, 5, testClusterConfig(tb))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cluster.Close() }) //nolint:errcheck // test teardown
	e := NewEngine(cluster.Nodes[0], Config{})
	e.Register(invertedSchema)
	e.Register(cacheSchema)
	return e
}

// put stores tuples under (table, key) in e's own store without the
// schema check a publish runs.
func put(e *Engine, table string, key Value, tuples ...Tuple) {
	for _, t := range tuples {
		e.node.LocalPut(keyID(table, key), t.Encode(nil))
	}
}

// chainStep delivers msg to e's chain handler, with e as the origin, and
// returns the result message the step sends back.
func chainStep(tb testing.TB, e *Engine, msg chainMsg) resultMsg {
	tb.Helper()
	msg.QID = e.nextQID.Add(1)
	msg.Origin = e.node.Info()
	ch := make(chan resultMsg, 1)
	e.mu.Lock()
	e.waiters[msg.QID] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiters, msg.QID)
		e.mu.Unlock()
	}()
	e.handleChain(e.node.Info(), encodeChainMsg(nil, &msg))
	select {
	case res := <-ch:
		return res
	default:
		tb.Fatal("chain step sent no result")
		return resultMsg{}
	}
}

// cacheScan runs msg through e's InvertedCache handler.
func cacheScan(tb testing.TB, e *Engine, msg cacheMsg) [][]byte {
	tb.Helper()
	cr, err := decodeCacheReply(e.handleCache(e.node.Info(), encodeCacheMsg(nil, &msg)))
	if err != nil {
		tb.Fatal(err)
	}
	if cr.Err != "" {
		tb.Fatalf("cache scan failed: %s", cr.Err)
	}
	return cr.Tuples
}

func fid(s string) Value { return Bytes([]byte(s)) }

// texts renders a value set of fileIDs or strings for comparison.
func texts(vals []Value) string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v.Raw())
		if v.K == KindString {
			out[i] = v.Text()
		}
	}
	return strings.Join(out, " ")
}

// The chain step at step > 0 is PIER's symmetric hash join run on a batch
// (see runChainStep): the join tests below call it directly. Value sets
// travel sorted, so a step's result reads in sorted order whatever order
// the candidates came in.

// TestHashJoinBasic pins the step's join: a candidate survives when the
// owner holds a posting with its join value, and only then.
func TestHashJoinBasic(t *testing.T) {
	e := newOwner(t)
	beta := String("beta")
	put(e, "Inverted", beta, Tuple{beta, fid("f1")}, Tuple{beta, fid("f2")}, Tuple{beta, fid("f4")})
	res := chainStep(t, e, chainMsg{
		Table: "Inverted", JoinCol: "fileID", Keys: []Value{String("alpha"), beta}, Step: 1,
		Candidates: []Value{fid("f4"), fid("f3"), fid("f1"), fid("f5")},
	})
	if res.Err != "" || texts(res.Values) != "f1 f4" {
		t.Fatalf("step 1 = %q (err %q), want \"f1 f4\"", texts(res.Values), res.Err)
	}
}

// TestHashJoinEmptyInputs pins that an empty side joins to nothing: a key
// with no postings, and a step handed no candidates.
func TestHashJoinEmptyInputs(t *testing.T) {
	e := newOwner(t)
	alpha, beta := String("alpha"), String("beta")
	put(e, "Inverted", beta, Tuple{beta, fid("f1")})
	for _, msg := range []chainMsg{
		{Table: "Inverted", JoinCol: "fileID", Keys: []Value{beta, alpha}, Step: 1, Candidates: []Value{fid("f1")}},
		{Table: "Inverted", JoinCol: "fileID", Keys: []Value{alpha, beta}, Step: 1},
		{Table: "Inverted", JoinCol: "fileID", Keys: []Value{alpha}},
	} {
		if res := chainStep(t, e, msg); res.Err != "" || len(res.Values) != 0 {
			t.Errorf("step %d under %s with %d candidates = %q (err %q), want nothing",
				msg.Step, msg.Keys[msg.Step].Text(), len(msg.Candidates), texts(res.Values), res.Err)
		}
	}
}

// TestSymmetricHashJoinDuplicates pins that each matching candidate
// survives once, however often it repeats on either side of the join.
func TestSymmetricHashJoinDuplicates(t *testing.T) {
	e := newOwner(t)
	beta := String("beta")
	// Two postings share f2's join value, as when two hosts publish the
	// same file under different names.
	put(e, "InvertedCache", beta,
		Tuple{beta, fid("f1"), String("one")},
		Tuple{beta, fid("f2"), String("two")},
		Tuple{beta, fid("f2"), String("two again")},
		Tuple{beta, fid("f4"), String("four")})
	res := chainStep(t, e, chainMsg{
		Table: "InvertedCache", JoinCol: "fileID", Keys: []Value{String("alpha"), beta}, Step: 1,
		Candidates: []Value{fid("f3"), fid("f2"), fid("f1"), fid("f2"), fid("f1"), fid("f5")},
	})
	if res.Err != "" || texts(res.Values) != "f1 f2" {
		t.Fatalf("step 1 = %q (err %q), want \"f1 f2\"", texts(res.Values), res.Err)
	}
}

// TestDistinct pins that step 0 seeds the stream from the posting list
// once per join value.
func TestDistinct(t *testing.T) {
	e := newOwner(t)
	alpha := String("alpha")
	put(e, "InvertedCache", alpha,
		Tuple{alpha, fid("f1"), String("one")},
		Tuple{alpha, fid("f2"), String("two")},
		Tuple{alpha, fid("f1"), String("one again")})
	res := chainStep(t, e, chainMsg{Table: "InvertedCache", JoinCol: "fileID", Keys: []Value{alpha}})
	if res.Err != "" || texts(res.Values) != "f1 f2" {
		t.Fatalf("step 0 = %q (err %q), want \"f1 f2\"", texts(res.Values), res.Err)
	}
}

// TestProject pins that the chain ships the join column alone: step 0
// projects each posting onto the column the plan names.
func TestProject(t *testing.T) {
	e := newOwner(t)
	alpha := String("alpha")
	put(e, "InvertedCache", alpha,
		Tuple{alpha, fid("f1"), String("one")},
		Tuple{alpha, fid("f2"), String("two")})
	for col, want := range map[string]string{"fileID": "f1 f2", "fulltext": "one two", "keyword": "alpha"} {
		res := chainStep(t, e, chainMsg{Table: "InvertedCache", JoinCol: col, Keys: []Value{alpha}})
		if res.Err != "" || texts(res.Values) != want {
			t.Errorf("step 0 on %s = %q (err %q), want %q", col, texts(res.Values), res.Err, want)
		}
	}
}

// TestSymmetricEqualsClassicJoin checks the chain step against a
// nested-loop semi-join on random inputs, empty sides included.
func TestSymmetricEqualsClassicJoin(t *testing.T) {
	e := newOwner(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		key := String(fmt.Sprintf("k%d", trial))
		var held, cands []Value
		for i := rng.Intn(8); i > 0; i-- {
			v := fid(fmt.Sprintf("f%d", rng.Intn(10)))
			held = append(held, v)
			put(e, "InvertedCache", key, Tuple{key, v, String(fmt.Sprintf("name %d", i))})
		}
		for i := rng.Intn(8); i > 0; i-- {
			cands = append(cands, fid(fmt.Sprintf("f%d", rng.Intn(10))))
		}
		var want []string
		seen := map[string]bool{}
		for _, c := range cands {
			for _, h := range held {
				if c.Equal(h) && !seen[c.Key()] {
					seen[c.Key()] = true
					want = append(want, string(c.Raw()))
				}
			}
		}
		sort.Strings(want)
		res := chainStep(t, e, chainMsg{
			Table: "InvertedCache", JoinCol: "fileID", Keys: []Value{String("x"), key}, Step: 1,
			Candidates: cands,
		})
		if got := texts(res.Values); res.Err != "" || got != strings.Join(want, " ") {
			t.Fatalf("trial %d: step = %q (err %q), want %q", trial, got, res.Err, strings.Join(want, " "))
		}
	}
}

// TestChainStepUnknownJoinColumn pins that a chain plan naming a column
// the table lacks fails the query instead of crashing the owner.
func TestChainStepUnknownJoinColumn(t *testing.T) {
	e := newOwner(t)
	beta := String("beta")
	put(e, "Inverted", beta, Tuple{beta, fid("f1")})
	for step := 0; step < 2; step++ {
		res := chainStep(t, e, chainMsg{
			Table: "Inverted", JoinCol: "nope", Keys: []Value{beta, beta}, Step: step,
			Candidates: []Value{fid("f1")},
		})
		if !strings.Contains(res.Err, "nope") || len(res.Values) != 0 {
			t.Errorf("step %d: result %q, err %q; want an error naming the column", step, texts(res.Values), res.Err)
		}
	}
}

// hostileFilter is a marshalled Bloom filter header claiming m bits and k
// hashes, followed by words zero words.
func hostileFilter(m, k uint64, words int) []byte {
	b := binary.LittleEndian.AppendUint64(nil, m)
	b = binary.LittleEndian.AppendUint64(b, k)
	b = binary.LittleEndian.AppendUint64(b, 0)
	return append(b, make([]byte, 8*words)...)
}

// stepZeroIgnoresFilter runs a step-0 chain message carrying filter on an
// owner with one posting: the owner must drop the filter and answer.
func stepZeroIgnoresFilter(t *testing.T, filter []byte) {
	t.Helper()
	e := newOwner(t)
	alpha := String("alpha")
	put(e, "Inverted", alpha, Tuple{alpha, fid("f1")})
	res := chainStep(t, e, chainMsg{
		Table: "Inverted", JoinCol: "fileID", Keys: []Value{alpha}, Step: 0, Filter: filter,
	})
	if res.Err != "" || texts(res.Values) != "f1" {
		t.Errorf("step 0 = %q (err %q), want \"f1\"", texts(res.Values), res.Err)
	}
}

// TestChainStepZeroBitFilter: a pre-join filter claiming 0 bits (24 bytes,
// so its length matches) made the first Test divide by zero.
func TestChainStepZeroBitFilter(t *testing.T) {
	stepZeroIgnoresFilter(t, hostileFilter(0, 1, 0))
}

// TestChainStepWrappedBitCountFilter: a pre-join filter claiming 2⁶⁴−1
// bits wrapped the word count to 0, and the first Test indexed past the
// empty bit array.
func TestChainStepWrappedBitCountFilter(t *testing.T) {
	stepZeroIgnoresFilter(t, hostileFilter(math.MaxUint64, 1, 0))
}

// TestOwnerScanDropsMalformedTuples pins that tuples a peer stored
// against a table's schema never reach the owner-side handlers: the
// chain step, the cache scan and both probes see only the valid ones,
// with and without the hot tier caching the scan.
func TestOwnerScanDropsMalformedTuples(t *testing.T) {
	for _, tier := range []bool{false, true} {
		t.Run(fmt.Sprintf("tier=%v", tier), func(t *testing.T) {
			e := newOwner(t)
			if tier {
				e.SetHotTier(hotcache.NewTier(hotcache.Options{}))
			}
			alpha := String("alpha")
			put(e, "Inverted", alpha, Tuple{alpha}, Tuple{alpha, fid("f1")}, Tuple{Int(7), fid("f9")})
			put(e, "InvertedCache", alpha, Tuple{alpha, fid("f2")}, Tuple{alpha, fid("f1"), String("alpha one")})

			for pass := 0; pass < 2; pass++ { // the second pass reads the tier's cached scan
				res := chainStep(t, e, chainMsg{
					Table: "Inverted", JoinCol: "fileID", Keys: []Value{alpha, alpha}, Step: 1,
					Candidates: []Value{fid("f1"), fid("f9")},
				})
				if res.Err != "" || texts(res.Values) != "f1" {
					t.Fatalf("chain step = %q (err %q), want \"f1\"", texts(res.Values), res.Err)
				}
				if got := cacheScan(t, e, cacheMsg{Table: "InvertedCache", Key: alpha, TextCol: "fulltext"}); len(got) != 1 {
					t.Fatalf("cache scan returned %d tuples, want 1", len(got))
				}
				if ts, err := e.scan(invertedSchema, alpha); err != nil || len(ts) != 1 {
					t.Fatalf("scan = %v, %v; want the one valid tuple", ts, err)
				}
				br, err := decodeBloomReply(e.handleBloom(e.node.Info(), encodeBloomMsg(nil, &bloomMsg{Table: "Inverted", Key: alpha})))
				if err != nil || br.Err != "" || br.Count != 1 || br.Filter != nil {
					t.Fatalf("count probe = %+v, %v; want count 1 and no filter", br, err)
				}
				br, err = decodeBloomReply(e.handleBloom(e.node.Info(), encodeBloomMsg(nil, &bloomMsg{
					Table: "InvertedCache", Key: alpha, JoinCol: "fileID",
				})))
				if err != nil || br.Err != "" || br.Count != 1 {
					t.Fatalf("bloom probe = %+v, %v; want count 1", br, err)
				}
			}
		})
	}
}

// madonnaOwner returns an owner whose InvertedCache holds four "Hits" and
// three "Like A PRAYER" postings under madonna.
func madonnaOwner(tb testing.TB) (*Engine, Value) {
	e := newOwner(tb)
	madonna := String("madonna")
	for i := 0; i < 4; i++ {
		put(e, "InvertedCache", madonna, Tuple{madonna, fid(fmt.Sprintf("hit%d", i)), String(fmt.Sprintf("Madonna Hits %d", i))})
	}
	for i := 0; i < 3; i++ {
		put(e, "InvertedCache", madonna, Tuple{madonna, fid(fmt.Sprintf("live%d", i)), String(fmt.Sprintf("Madonna Like A PRAYER live %d", i))})
	}
	return e, madonna
}

// TestSelect pins the InvertedCache scan's selection: every filter must
// occur in the text under case folding.
func TestSelect(t *testing.T) {
	e, madonna := madonnaOwner(t)
	msg := cacheMsg{Table: "InvertedCache", Key: madonna, TextCol: "fulltext"}
	for _, c := range []struct {
		filters []string
		want    int
	}{
		{nil, 7},
		{[]string{"MADONNA"}, 7},
		{[]string{"pRaYeR", "like"}, 3},
		{[]string{"prayer", "hits"}, 0},
		{[]string{"beatles"}, 0},
	} {
		msg.Filters = c.filters
		got := cacheScan(t, e, msg)
		if len(got) != c.want {
			t.Errorf("filters %q returned %d tuples, want %d", c.filters, len(got), c.want)
		}
		for _, raw := range got {
			tp, _, err := DecodeTuple(raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range c.filters {
				if !containsFold(tp[2].Text(), f) {
					t.Errorf("filters %q returned %q", c.filters, tp[2].Text())
				}
			}
		}
	}
}

// TestLimit pins that Limit caps the matching tuples, not the scanned
// ones, and that zero means no limit.
func TestLimit(t *testing.T) {
	e, madonna := madonnaOwner(t)
	msg := cacheMsg{Table: "InvertedCache", Key: madonna, TextCol: "fulltext", Filters: []string{"prayer"}}
	for limit, want := range map[int]int{0: 3, 1: 1, 2: 2, 3: 3, 10: 3} {
		msg.Limit = limit
		got := cacheScan(t, e, msg)
		if len(got) != want {
			t.Fatalf("limit %d returned %d tuples, want %d", limit, len(got), want)
		}
		for _, raw := range got {
			tp, _, err := DecodeTuple(raw)
			if err != nil || !strings.Contains(tp[2].Text(), "PRAYER") {
				t.Errorf("limit %d returned %v (%v), want only matches", limit, tp, err)
			}
		}
	}
}

// benchOwner returns an owner holding 1000 postings under (table, key),
// with a hot tier installed as on a serving node: the tier keeps the
// decoded posting set, so a benchmark measures the handler's own work.
func benchOwner(b *testing.B, table string, key Value, posting func(i int) Tuple) *Engine {
	e := newOwner(b)
	e.SetHotTier(hotcache.NewTier(hotcache.Options{}))
	for i := 0; i < 1000; i++ {
		put(e, table, key, posting(i))
	}
	return e
}

func BenchmarkChainStep(b *testing.B) {
	beta := String("beta")
	e := benchOwner(b, "Inverted", beta, func(i int) Tuple { return Tuple{beta, Bytes(benchFileID(i))} })
	// 1000 candidates, every other one held: half the stream survives.
	cands := make([]Value, 1000)
	for i := range cands {
		cands[i] = Bytes(benchFileID(2 * i))
	}
	msg := chainMsg{Table: "Inverted", JoinCol: "fileID", Keys: []Value{String("alpha"), beta}, Step: 1, Candidates: cands}
	if res := chainStep(b, e, msg); len(res.Values) != 500 {
		b.Fatalf("step kept %d candidates, want 500", len(res.Values))
	}
	msg.Origin = e.node.Info()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.runChainStep(msg) // no waiter: the origin drops the result
	}
}

func BenchmarkCacheSelectScan(b *testing.B) {
	madonna := String("madonna")
	e := benchOwner(b, "InvertedCache", madonna, func(i int) Tuple {
		name := fmt.Sprintf("Madonna Track %04d.mp3", i)
		if i%10 == 0 {
			name = fmt.Sprintf("Madonna Like A Prayer %04d.mp3", i)
		}
		return Tuple{madonna, Bytes(benchFileID(i)), String(name)}
	})
	msg := cacheMsg{Table: "InvertedCache", Key: madonna, TextCol: "fulltext", Filters: []string{"prayer"}}
	if got := cacheScan(b, e, msg); len(got) != 100 {
		b.Fatalf("scan matched %d tuples, want 100", len(got))
	}
	wire := encodeCacheMsg(nil, &msg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.handleCache(e.node.Info(), wire)
	}
}
