package hybrid

import "math"

// Only this package's tests use what follows.

// QRS builds the Query-Results-Size scheme from observed queries: a file's
// score is the smallest result-set size it has appeared in; files never
// seen in any result get +Inf (a caching scheme cannot publish them —
// the weakness §5 notes).
func QRS(resultSets [][]int, files int) Scheme {
	scores := make([]float64, files)
	for i := range scores {
		scores[i] = math.Inf(1)
	}
	for _, set := range resultSets {
		size := float64(len(set))
		for _, f := range set {
			if size < scores[f] {
				scores[f] = size
			}
		}
	}
	return staticScheme{name: "QRS", scores: scores}
}

// SelectThreshold publishes every file whose score is <= threshold — the
// paper's per-scheme threshold knobs (Replica Threshold, Term Frequency
// Threshold, ...).
func SelectThreshold(s Scheme, threshold float64) []bool {
	scores := s.Scores()
	out := make([]bool, len(scores))
	for i, sc := range scores {
		out[i] = sc <= threshold
	}
	return out
}
