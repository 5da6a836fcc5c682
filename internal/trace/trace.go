// Package trace generates synthetic Gnutella content and query workloads.
//
// The paper's model and scheme experiments (§6) consume traces collected
// from the live Gnutella network: 315,546 file instances on 75,129 hosts,
// 700 replayed queries, 38,900 distinct filename terms. Those traces are
// not available, so this package synthesises workloads with the published
// aggregate properties: a long-tailed (Zipf-like) replica distribution
// calibrated so ~23% of file instances are singletons (the paper's Figure
// 10 anchor: replica threshold 1 publishes 23% of items), filenames drawn
// from a Zipf term vocabulary with rare files biased toward rare terms
// (the signal the TF/TPF schemes exploit), and a query workload with
// substantial rare-item mass (§8: the tail is "a substantial fraction of
// the query workload").
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Config parameterises workload generation. Zero fields take defaults
// scaled to the paper's trace (§6.2).
type Config struct {
	DistinctFiles   int     // distinct filenames (default 100,000)
	TargetCopies    int     // total file instances (default 315,546)
	SingletonFrac   float64 // fraction of instances with one replica (default 0.23)
	Hosts           int     // hosts holding instances (default 75,129)
	Vocabulary      int     // distinct terms (default 40,000)
	TermZipfS       float64 // term popularity exponent (default 1.05)
	Queries         int     // workload size (default 700)
	RareQueryFrac   float64 // fraction of queries drawn uniformly over ranks (default 0.55)
	MinTermsPerFile int     // filename length bounds (defaults 3..6)
	MaxTermsPerFile int
	Seed            int64
}

// Normalize fills defaults and returns the config.
func (c Config) Normalize() Config {
	if c.DistinctFiles <= 0 {
		c.DistinctFiles = 100_000
	}
	if c.TargetCopies <= 0 {
		c.TargetCopies = 315_546
	}
	if c.SingletonFrac <= 0 || c.SingletonFrac >= 1 {
		c.SingletonFrac = 0.23
	}
	if c.Hosts <= 0 {
		c.Hosts = 75_129
	}
	if c.Vocabulary <= 0 {
		c.Vocabulary = 40_000
	}
	if c.TermZipfS <= 0 {
		c.TermZipfS = 1.05
	}
	if c.Queries <= 0 {
		c.Queries = 700
	}
	if c.RareQueryFrac <= 0 || c.RareQueryFrac > 1 {
		c.RareQueryFrac = 0.55
	}
	if c.MinTermsPerFile <= 0 {
		c.MinTermsPerFile = 3
	}
	if c.MaxTermsPerFile < c.MinTermsPerFile {
		c.MaxTermsPerFile = c.MinTermsPerFile + 3
	}
	return c
}

// DistinctFile is one distinct filename in the network.
type DistinctFile struct {
	Name     string
	Terms    []string // indexable terms of Name, in order
	Replicas int      // copies in the network
}

// Query is one workload entry.
type Query struct {
	Text       string
	Terms      []string
	TargetRank int // the distinct file the querier wanted
}

// Trace is a generated workload.
type Trace struct {
	Cfg     Config
	Files   []DistinctFile // sorted by rank: 0 = most replicated
	Queries []Query
	rng     *rand.Rand
}

// newRNG builds the deterministic source used for generation and
// placement.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Generate builds a trace from cfg.
func Generate(cfg Config) *Trace {
	cfg = cfg.Normalize()
	rng := newRNG(cfg.Seed)
	tr := &Trace{Cfg: cfg, rng: rng}

	replicas := CalibrateReplicas(cfg.DistinctFiles, cfg.TargetCopies, cfg.SingletonFrac)
	vocab := makeVocabulary(cfg.Vocabulary, rng)
	termPicker := newZipfPicker(cfg.Vocabulary, cfg.TermZipfS, rng)

	seen := make(map[string]bool, cfg.DistinctFiles)
	tr.Files = make([]DistinctFile, cfg.DistinctFiles)
	for rank := 0; rank < cfg.DistinctFiles; rank++ {
		nTerms := cfg.MinTermsPerFile + rng.Intn(cfg.MaxTermsPerFile-cfg.MinTermsPerFile+1)
		var terms []string
		for attempt := 0; ; attempt++ {
			terms = tr.pickTerms(vocab, termPicker, rank, nTerms)
			name := strings.Join(terms, " ") + ".mp3"
			if !seen[name] {
				seen[name] = true
				tr.Files[rank] = DistinctFile{Name: name, Terms: terms, Replicas: replicas[rank]}
				break
			}
			if attempt > 20 {
				// Force uniqueness with a rank-derived serial term.
				serial := fmt.Sprintf("vol%d", rank)
				terms = append(terms, serial)
				name = strings.Join(terms, " ") + ".mp3"
				seen[name] = true
				tr.Files[rank] = DistinctFile{Name: name, Terms: terms, Replicas: replicas[rank]}
				break
			}
		}
	}
	tr.Queries = tr.generateQueries()
	return tr
}

// pickTerms draws a filename's terms. Popular files (low rank) draw from
// the head of the term distribution; rare files shift toward the tail, so
// rare files tend to contain globally rare terms — the correlation the
// paper's TF/TPF schemes rely on.
func (tr *Trace) pickTerms(vocab []string, picker *zipfPicker, rank, n int) []string {
	shift := int(float64(rank) / float64(tr.Cfg.DistinctFiles) * float64(tr.Cfg.Vocabulary) * 0.5)
	terms := make([]string, 0, n)
	used := map[int]bool{}
	for len(terms) < n {
		idx := picker.Sample()
		// Shift a random subset of term draws toward the tail for rare
		// files; keep at least one head term so queries stay realistic.
		if len(terms) > 0 && tr.rng.Float64() < 0.6 {
			idx += shift
		}
		if idx >= tr.Cfg.Vocabulary {
			idx = tr.Cfg.Vocabulary - 1 - tr.rng.Intn(tr.Cfg.Vocabulary/10+1)
		}
		if used[idx] {
			continue
		}
		used[idx] = true
		terms = append(terms, vocab[idx])
	}
	return terms
}

// generateQueries draws the query workload: a mixture of popularity-biased
// queries (head of the Zipf) and uniform-over-rank queries (tail-heavy,
// since most ranks are rare).
func (tr *Trace) generateQueries() []Query {
	cfg := tr.Cfg
	picker := newZipfPicker(cfg.DistinctFiles, 1.0, tr.rng)
	queries := make([]Query, cfg.Queries)
	for i := range queries {
		var rank int
		if tr.rng.Float64() < cfg.RareQueryFrac {
			rank = tr.rng.Intn(cfg.DistinctFiles)
		} else {
			rank = picker.Sample()
		}
		f := tr.Files[rank]
		n := 1 + tr.rng.Intn(min(3, len(f.Terms)))
		perm := tr.rng.Perm(len(f.Terms))[:n]
		sort.Ints(perm)
		terms := make([]string, n)
		for j, p := range perm {
			terms[j] = f.Terms[p]
		}
		queries[i] = Query{Text: strings.Join(terms, " "), Terms: terms, TargetRank: rank}
	}
	return queries
}

// TotalInstances returns the number of file copies in the trace.
func (tr *Trace) TotalInstances() int {
	n := 0
	for _, f := range tr.Files {
		n += f.Replicas
	}
	return n
}

// Placement assigns every instance to a host: for each distinct file, a
// list of distinct host indices in [0, hosts). Replicas land on distinct
// hosts, per the model's assumption (§6.1).
func (tr *Trace) Placement(hosts int) [][]int32 {
	out := make([][]int32, len(tr.Files))
	for i, f := range tr.Files {
		r := f.Replicas
		if r > hosts {
			r = hosts
		}
		chosen := make(map[int32]bool, r)
		list := make([]int32, 0, r)
		for len(list) < r {
			h := int32(tr.rng.Intn(hosts))
			if !chosen[h] {
				chosen[h] = true
				list = append(list, h)
			}
		}
		out[i] = list
	}
	return out
}

// TermInstanceFrequency returns, per term, the number of file instances
// whose filename contains it — the statistic an ultrapeer estimates by
// watching query-result traffic (§5's TF scheme).
func (tr *Trace) TermInstanceFrequency() map[string]int {
	freq := make(map[string]int)
	for _, f := range tr.Files {
		for _, t := range f.Terms {
			freq[t] += f.Replicas
		}
	}
	return freq
}

// PairInstanceFrequency returns adjacent-term-pair instance frequencies
// (§5's TPF scheme).
func (tr *Trace) PairInstanceFrequency() map[[2]string]int {
	freq := make(map[[2]string]int)
	for _, f := range tr.Files {
		for i := 0; i+1 < len(f.Terms); i++ {
			freq[[2]string{f.Terms[i], f.Terms[i+1]}] += f.Replicas
		}
	}
	return freq
}

// MatchingFiles returns, for each query, the ranks of every distinct file
// whose term set contains all query terms — the query's total available
// result set, built with an inverted index over distinct files.
func (tr *Trace) MatchingFiles() [][]int {
	index := make(map[string][]int32)
	for rank, f := range tr.Files {
		for _, t := range f.Terms {
			index[t] = append(index[t], int32(rank))
		}
	}
	out := make([][]int, len(tr.Queries))
	for qi, q := range tr.Queries {
		lists := make([][]int32, len(q.Terms))
		ok := true
		for i, t := range q.Terms {
			lists[i] = index[t]
			if len(lists[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		candidates := lists[0]
		for _, ranks := range lists[1:] {
			set := make(map[int32]bool, len(ranks))
			for _, r := range ranks {
				set[r] = true
			}
			var kept []int32
			for _, c := range candidates {
				if set[c] {
					kept = append(kept, c)
				}
			}
			candidates = kept
			if len(candidates) == 0 {
				break
			}
		}
		matches := make([]int, len(candidates))
		for i, c := range candidates {
			matches[i] = int(c)
		}
		out[qi] = matches
	}
	return out
}

// CalibrateReplicas produces a replica count per rank (descending) for
// `distinct` files such that the total instance count approximates
// targetCopies and the fraction of singleton instances approximates
// singletonFrac. The head follows a power law R(r) = C/(r+1)^s with C and
// s found by nested numeric search.
func CalibrateReplicas(distinct, targetCopies int, singletonFrac float64) []int {
	build := func(c, s float64) (counts []int, total, singles int) {
		counts = make([]int, distinct)
		for r := 0; r < distinct; r++ {
			v := int(math.Round(c / math.Pow(float64(r+1), s)))
			if v < 1 {
				v = 1
			}
			counts[r] = v
			total += v
			if v == 1 {
				singles++
			}
		}
		return counts, total, singles
	}
	bestCounts, _, _ := build(float64(targetCopies)/10, 1.0)
	bestErr := math.Inf(1)
	for _, s := range []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3} {
		lo, hi := 1.0, float64(targetCopies)
		for iter := 0; iter < 60; iter++ {
			c := (lo + hi) / 2
			_, total, singles := build(c, s)
			frac := float64(singles) / float64(total)
			// Larger C -> bigger head -> fewer singleton instances.
			if frac > singletonFrac {
				lo = c
			} else {
				hi = c
			}
			if hi-lo < 1 {
				break
			}
		}
		c := (lo + hi) / 2
		counts, total, singles := build(c, s)
		fracErr := math.Abs(float64(singles)/float64(total) - singletonFrac)
		totalErr := math.Abs(float64(total-targetCopies)) / float64(targetCopies)
		err := fracErr*2 + totalErr
		if err < bestErr {
			bestErr = err
			bestCounts = counts
		}
	}
	return bestCounts
}

// zipfPicker samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, via the inverse-CDF over precomputed cumulative weights.
type zipfPicker struct {
	cum []float64
	rng *rand.Rand
}

func newZipfPicker(n int, s float64, rng *rand.Rand) *zipfPicker {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipfPicker{cum: cum, rng: rng}
}

// Sample returns one rank.
func (z *zipfPicker) Sample() int {
	x := z.rng.Float64() * z.cum[len(z.cum)-1]
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// makeVocabulary builds n pronounceable pseudo-words, deterministic in rng.
func makeVocabulary(n int, rng *rand.Rand) []string {
	consonants := []string{"b", "d", "f", "g", "k", "l", "m", "n", "r", "s", "t", "v", "z", "ch", "st", "br"}
	vowels := []string{"a", "e", "i", "o", "u", "ai", "ou"}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		syllables := 2 + rng.Intn(2)
		var b strings.Builder
		for s := 0; s < syllables; s++ {
			b.WriteString(consonants[rng.Intn(len(consonants))])
			b.WriteString(vowels[rng.Intn(len(vowels))])
		}
		w := b.String()
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
