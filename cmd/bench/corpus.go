package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"piersearch/internal/piersearch"
	"piersearch/internal/trace"
)

// maxReplicas caps the copies of one file: the trace's head files have
// hundreds, and uncapped they would make the corpus mostly head.
const maxReplicas = 20

// corpusHosts is the number of synthetic sharing hosts instances are
// spread over. Host names must not be node addresses: those carry
// ephemeral ports, and a FileID hashes its host.
const corpusHosts = 4096

// instance is one shared copy of a file, as the oracle knows it.
type instance struct {
	file   piersearch.File
	id     piersearch.FileID
	tokens []string
	lower  string // file name lowercased, for the substring plan
	host   int
	// placed marks the corpus proper, stored at set-up. acked is false
	// while a benchmark publish of the instance is in flight: a query may
	// or may not see it yet.
	placed, acked bool
}

// queryText is one distinct query of the trace.
type queryText struct {
	text   string
	tokens []string
}

// corpus is the placed content plus everything published since, indexed
// by token and by file ID: the correctness oracle.
type corpus struct {
	files   []trace.DistinctFile
	queries []queryText // pairwise distinct as term sets
	placed  int         // instances placed at set-up
	tuples  int         // index tuples placed at set-up

	mu        sync.Mutex
	instances []*instance
	byToken   map[string][]*instance
	byID      map[piersearch.FileID]*instance
	// version[t] changes whenever an instance holding token t is added or
	// acked; counts memoizes count per query while its first token's
	// version stands.
	version map[string]int
	counts  map[countKey]counted
}

type countKey struct {
	text     string
	strategy piersearch.Strategy
	limit    int
}

// counted bounds a correct answer's size. must are the matches in the
// placed corpus, capped at the query's limit; extra the matches published
// since, and acked those of them whose publish was acked.
type counted struct {
	must, extra, acked int
	version            int
}

// absentSlack is how many results an answer may lack because node 0 cached
// the absence of a published file's Item tuple: a fetch that raced the
// publish and whose empty reply reached the tier after the publish's ack
// had purged the key. The entry would stand for the tier's TTL, and every
// answer whose match phase picks that posting be one short. The window is
// some tens of microseconds a publish and no run has shown such an answer;
// the allowance is for the race existing, and small enough that a short
// answer still fails.
const absentSlack = 2

// fresh is the size of an answer that misses nothing acked; allowed the
// size of the largest right answer.
func (n counted) fresh(limit int) int   { return min(n.must+n.acked, limit) }
func (n counted) allowed(limit int) int { return min(n.must+n.extra, limit) }

// low is the size of the smallest right answer when inflight matching
// publishes were not yet acked as the query was sent. The limit is pushed
// into the match phase, and a publish's tuples land in any order: a
// posting whose Item tuple is not stored yet, or is cached as absent, can
// hold one of the limit's slots and is then dropped by the fetch. An answer
// with slots to spare loses nothing that way, so below the limit every
// placed match is required, however many publishes the text has drawn.
func (n counted) low(limit, inflight int) int {
	return max(min(n.must, limit-inflight-absentSlack), 0)
}

// newCorpus generates files distinct files and up to queries trace
// queries from seed, and keeps the queries whose term sets differ.
func newCorpus(seed int64, files, queries int) *corpus {
	vocab := files * 2 / 5 // the trace default's ratio of terms to files
	if vocab < 200 {
		vocab = 200
	}
	tr := trace.Generate(trace.Config{
		DistinctFiles: files,
		TargetCopies:  files * 316 / 100, // the paper's instances per distinct file
		Hosts:         corpusHosts,
		Vocabulary:    vocab,
		Queries:       queries,
		Seed:          seed,
	})
	c := &corpus{
		files:   tr.Files,
		byToken: map[string][]*instance{},
		byID:    map[piersearch.FileID]*instance{},
		version: map[string]int{},
		counts:  map[countKey]counted{},
	}
	tok := piersearch.Tokenizer{}
	placement := tr.Placement(corpusHosts)
	for rank, f := range tr.Files {
		hosts := placement[rank]
		if len(hosts) > maxReplicas {
			hosts = hosts[:maxReplicas]
		}
		tokens := tok.Tokenize(f.Name)
		for _, h := range hosts {
			c.add(piersearch.File{Name: f.Name, Size: int64(1<<20 + rank*997), Host: hostName(int(h)), Port: 6346}, tokens, int(h))
		}
	}
	c.placed = len(c.instances)
	for _, inst := range c.instances {
		inst.placed, inst.acked = true, true
	}
	seen := map[string]bool{}
	for _, q := range tr.Queries {
		tokens := tok.Tokenize(q.Text)
		sorted := append([]string(nil), tokens...)
		sort.Strings(sorted)
		sig := strings.Join(sorted, " ")
		if len(tokens) == 0 || seen[sig] {
			continue
		}
		seen[sig] = true
		c.queries = append(c.queries, queryText{text: q.Text, tokens: tokens})
	}
	return c
}

func hostName(h int) string { return fmt.Sprintf("10.%d.%d.%d", h>>16&255, h>>8&255, h&255) }

// add indexes one instance, not yet acked, and returns it.
func (c *corpus) add(f piersearch.File, tokens []string, host int) *instance {
	inst := &instance{file: f, id: f.ID(), tokens: tokens, lower: strings.ToLower(f.Name), host: host}
	c.mu.Lock()
	c.instances = append(c.instances, inst)
	c.byID[inst.id] = inst
	for _, t := range tokens {
		c.byToken[t] = append(c.byToken[t], inst)
		c.version[t]++
	}
	c.mu.Unlock()
	return inst
}

// ack marks a published instance as visible to every later query.
func (c *corpus) ack(inst *instance) {
	c.mu.Lock()
	inst.acked = true
	for _, t := range inst.tokens {
		c.version[t]++
	}
	c.mu.Unlock()
}

// matches reports whether inst answers tokens under strategy.
// StrategyJoin matches instances holding every term as a token.
// StrategyCache asks the owner of the first term and keeps the postings
// whose file name contains every other term as a case-folded substring.
func (inst *instance) matches(tokens []string, strategy piersearch.Strategy) bool {
	for i, t := range tokens {
		if i > 0 && strategy == piersearch.StrategyCache {
			if !strings.Contains(inst.lower, t) {
				return false
			}
			continue
		}
		found := false
		for _, have := range inst.tokens {
			if have == t {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// count bounds the size of a correct answer to q right now.
func (c *corpus) count(q queryText, strategy piersearch.Strategy, limit int) counted {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := countKey{q.text, strategy, limit}
	n := counted{version: c.version[q.tokens[0]]}
	if m, ok := c.counts[key]; ok && m.version == n.version {
		return m
	}
	// The placed instances head every list and the published ones tail
	// it, so neither scan walks a head term's ten thousand postings.
	list := c.byToken[q.tokens[0]]
	for i := 0; i < len(list) && list[i].placed && n.must < limit; i++ {
		if list[i].matches(q.tokens, strategy) {
			n.must++
		}
	}
	for i := len(list) - 1; i >= 0 && !list[i].placed; i-- {
		if list[i].matches(q.tokens, strategy) {
			n.extra++
			if list[i].acked {
				n.acked++
			}
		}
	}
	c.counts[key] = n
	return n
}

// check judges got as an answer to q; before is count's figure from when
// the query was sent. A wrong answer gets a reason: a result that is no
// shared file or does not match, one returned twice, too few or too many.
// Publishes not acked when the query was sent may show or not, and each may
// cost the answer a slot (see low); nothing else may be missing from the
// placed corpus. The tier may serve a cached answer for up to its TTL and a
// run is shorter than that, so an answer that is right by that rule but
// misses a publish acked before the query was sent is stale, not wrong.
func (c *corpus) check(q queryText, strategy piersearch.Strategy, limit int, before counted, got []piersearch.Result) (wrong string, stale bool) {
	after := c.count(q, strategy, limit)
	low, high := after.low(limit, after.extra-before.acked), after.allowed(limit)
	if len(got) < low || len(got) > high {
		return fmt.Sprintf("%d results, want %d..%d", len(got), low, high), false
	}
	placed := 0
	for i, r := range got {
		c.mu.Lock()
		inst := c.byID[r.FileID]
		c.mu.Unlock()
		if inst == nil || inst.file != r.File {
			return fmt.Sprintf("result %q on %s is no shared file", r.File.Name, r.File.Host), false
		}
		if !inst.matches(q.tokens, strategy) {
			return fmt.Sprintf("result %q does not match", r.File.Name), false
		}
		for _, prev := range got[:i] {
			if prev.FileID == r.FileID {
				return fmt.Sprintf("result %q returned twice", r.File.Name), false
			}
		}
		if inst.placed {
			placed++
		}
	}
	// Only a published posting can take a placed file's slot.
	if want := min(after.must, limit-after.extra); placed < want {
		return fmt.Sprintf("%d of the results are placed files, want %d", placed, want), false
	}
	return "", len(got) < before.fresh(limit)
}

// reset forgets every publish since set-up, so the next set-up of the
// same inputs starts from the placed corpus again.
func (c *corpus) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.instances) - 1; i >= c.placed; i-- {
		inst := c.instances[i]
		delete(c.byID, inst.id)
		for _, t := range inst.tokens {
			c.byToken[t] = c.byToken[t][:len(c.byToken[t])-1] // added last, so it is last
			c.version[t]++
		}
	}
	c.instances = c.instances[:c.placed]
}
