package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"piersearch/internal/piersearch"
)

// queryLimit is every query's result limit, cmd/piersearch's -limit default.
const queryLimit = 50

// hotTexts is the working set of the hot workloads: distinct query texts
// whose results fit the 32 MiB tier many times over.
const hotTexts = 1000

// coldEvery makes every coldEvery-th op of the hot workloads a text never
// sent before: a hot stream's cold tail. Without it every measured op is a
// cache hit, msgs_per_op and wire_kb_per_op read 0 on every run, and a
// metric that is always 0 has no spread to bound. The tail sits well
// under the 95th percentile, so only those two metrics see it.
const coldEvery = 64

// writeEvery makes every writeEvery-th op of mixed_rw a publish.
const writeEvery = 8

// op is one client operation: a query, or a publish when file.Name is set.
type op struct {
	query    queryText
	strategy piersearch.Strategy
	file     piersearch.File
	tokens   []string // of file.Name
}

func (o *op) isPublish() bool { return o.file.Name != "" }

// request is the query op as the search API takes it.
func (o *op) request() piersearch.Query {
	return piersearch.Query{Text: o.query.text, Strategy: o.strategy, Limit: queryLimit}
}

// workload is one traffic mix. Its op lists are drawn from the data set by
// the seed; the measured list is long enough that a run ends on its clock, not on the
// list, at benchSizes.
type workload struct {
	name string
	why  string
	disk bool
	hot  bool // texts repeat, and the warm-up caches them all
	// ops builds the warm-up and measured lists, n measured ops long.
	// Warm-up ops are disjoint from the measured ones unless the workload
	// is about repeats. The first counted measured ops are the ones whose
	// traffic is counted: a list of once-only texts gives those ops the
	// same texts whatever the seed, in seeded order. A query's cost is
	// heavy-tailed — one term matches a file, another ten thousand — and a
	// seeded sample of the pool moves traffic per op by a tenth; the same
	// texts in another order do not.
	ops func(c *corpus, rng *rand.Rand, n, counted int) (warm, measured []op)
}

var workloads = []workload{
	{
		name: "search_cold",
		why:  "pairwise-distinct queries, join and cache plans alternating: dht lookups (2 in 5 take a second round), routing, wire RPC, pier chain join and codec do the work; hotcache result caches are bypassed",
		ops:  coldOps,
	},
	{
		name: "search_hot",
		why:  "Zipf(1) draws over 1000 texts that fit the tier, 1 op in 64 a new text: service, wire.Mux, batch codec and hotcache do the work; dht and routing are idle, so a routing gain must show no change",
		hot:  true,
		ops:  func(c *corpus, rng *rand.Rand, n, _ int) ([]op, []op) { return hotOps(c, rng, n, false) },
	},
	{
		name: "publish",
		why:  "ModeBoth publishes of new files on disk stores: the write path of per-tuple lookups, replicated puts and the WAL; no cache helps",
		disk: true,
		ops:  publishOps,
	},
	{
		name: "mixed_rw",
		why:  "the search_hot stream with every 8th op a publish matching that slot's query, disk stores: each write invalidates what the next reads need, so a read gain that taxes writes shows",
		disk: true,
		hot:  true,
		ops:  func(c *corpus, rng *rand.Rand, n, _ int) ([]op, []op) { return hotOps(c, rng, n, true) },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// strategyOf alternates the two plans by the text's index, so a text
// always runs under the same plan and both plans see the same kind of
// text.
func strategyOf(i int) piersearch.Strategy {
	if i%2 == 0 {
		return piersearch.StrategyJoin
	}
	return piersearch.StrategyCache
}

// coldWarm is the number of search_cold warm-up queries: enough to dial
// the TCP pools between node 0 and every peer.
const coldWarm = 400

// shuffleAround shuffles texts[:head] and texts[head:] each within itself.
func shuffleAround(rng *rand.Rand, texts []queryText, head int) {
	head = min(head, len(texts))
	for _, part := range [][]queryText{texts[:head], texts[head:]} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
}

func coldOps(c *corpus, rng *rand.Rand, n, counted int) (warm, measured []op) {
	texts := append([]queryText(nil), c.queries...)
	if len(texts) > coldWarm {
		shuffleAround(rng, texts[coldWarm:], counted)
	}
	if len(texts) > coldWarm+n {
		texts = texts[:coldWarm+n]
	}
	ops := make([]op, len(texts))
	for i, q := range texts {
		ops[i] = op{query: q, strategy: strategyOf(i)}
	}
	if len(ops) <= coldWarm {
		return nil, ops
	}
	return ops[:coldWarm], ops[coldWarm:]
}

// zipf draws ranks in [0, n) with probability proportional to 1/(rank+1).
// math/rand's Zipf needs s > 1; s = 1 is the file-sharing literature's.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(n int, rng *rand.Rand) *zipf {
	z := &zipf{cum: make([]float64, n), rng: rng}
	total := 0.0
	for i := range z.cum {
		total += 1 / float64(i+1)
		z.cum[i] = total
	}
	return z
}

func (z *zipf) draw() int {
	x := z.rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, x)
}

// hotOps draws n queries Zipf(1) over the first hotTexts texts — the data
// set's, so the hottest text is the same whatever the seed — with every
// coldEvery-th the next text from beyond them, each sent once. The warm-up
// issues every hot text once, in rank order, so the measured phase starts
// with the whole working set cached. With writes, every writeEvery-th
// measured op publishes a new instance whose name holds that slot's query
// terms: the publish invalidates exactly what a later draw of the text
// needs.
func hotOps(c *corpus, rng *rand.Rand, n int, writes bool) (warm, measured []op) {
	texts, tail := c.queries, []queryText(nil)
	if len(texts) > hotTexts {
		texts, tail = texts[:hotTexts], texts[hotTexts:]
	}
	warm = make([]op, len(texts))
	for i, q := range texts {
		warm[i] = op{query: q, strategy: strategyOf(i)}
	}
	z := newZipf(len(texts), rng)
	tok := piersearch.Tokenizer{}
	measured = make([]op, n)
	for i := range measured {
		rank := z.draw()
		switch {
		case writes && i%writeEvery == writeEvery-1:
			measured[i] = publishOp(tok, fmt.Sprintf("%s mix%07d.mp3", texts[rank].text, i), i)
		case i%coldEvery == 0 && i/coldEvery < len(tail):
			measured[i] = op{query: tail[i/coldEvery], strategy: strategyOf(i / coldEvery)}
		default:
			measured[i] = warm[rank]
		}
	}
	return warm, measured
}

// publishWarm is the number of publish warm-up ops: enough to dial the
// pools and open every node's WAL.
const publishWarm = 100

// publishOps publishes files that are not in the corpus: a corpus file's
// terms, so posting lists grow where real ones would, plus a serial term
// that makes the name new and lets the read-your-writes check find
// exactly this file.
func publishOps(c *corpus, rng *rand.Rand, n, _ int) (warm, measured []op) {
	tok := piersearch.Tokenizer{}
	ops := make([]op, publishWarm+n)
	for i := range ops {
		f := c.files[rng.Intn(len(c.files))]
		ops[i] = publishOp(tok, fmt.Sprintf("%s pub%07d.mp3", f.Name[:len(f.Name)-len(".mp3")], i), i)
	}
	return ops[:publishWarm], ops[publishWarm:]
}

func publishOp(tok piersearch.Tokenizer, name string, serial int) op {
	host := serial % corpusHosts
	return op{
		file:   piersearch.File{Name: name, Size: int64(2<<20 + serial), Host: hostName(host), Port: 6347},
		tokens: tok.Tokenize(name),
	}
}

// quantile returns the q-quantile of sorted, by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
