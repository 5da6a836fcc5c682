package piersearch

import "strings"

// Only this package's tests use what follows.

// PublishAll publishes a batch of files, accumulating stats. It stops at
// the first error, returning the stats accumulated so far.
func (p *Publisher) PublishAll(files []File) (PublishStats, error) {
	var total PublishStats
	for _, f := range files {
		s, err := p.PublishFile(f)
		total.Tuples += s.Tuples
		total.Keywords += s.Keywords
		total.Messages += s.Messages
		total.Bytes += s.Bytes
		total.Wall += s.Wall
		if s.MaxInFlight > total.MaxInFlight {
			total.MaxInFlight = s.MaxInFlight
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// AdjacentPairs returns the ordered adjacent term pairs of s after
// tokenization, the unit of the Term-Pair-Frequency rare-item scheme (§5).
// Pairing happens before deduplication so repeated terms still pair up, but
// the returned pairs themselves are deduplicated.
func (tk Tokenizer) AdjacentPairs(s string) [][2]string {
	var kept []string
	for _, raw := range splitAlnum(s) {
		term := strings.ToLower(raw)
		if len(term) < tk.minLen() || tk.stop(term) {
			continue
		}
		kept = append(kept, term)
	}
	var pairs [][2]string
	seen := map[[2]string]bool{}
	for i := 0; i+1 < len(kept); i++ {
		p := [2]string{kept[i], kept[i+1]}
		if !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	return pairs
}
