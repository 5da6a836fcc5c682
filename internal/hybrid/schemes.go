package hybrid

import (
	"math"
	"math/rand"
	"sort"
)

// Scheme scores every distinct file; lower scores mean "rarer", and the
// publisher selects files in ascending score order until its budget or
// threshold is exhausted. All of §5's schemes reduce to a scoring rule:
//
//	Perfect  — true replica count (complete knowledge upper bound)
//	Random   — uniform noise (lower bound)
//	TF       — minimum term frequency across the filename's terms
//	TPF      — minimum adjacent-term-pair frequency
//	SAM      — replica count observed on a sampled subset of hosts
//	QRS      — smallest observed result-set size containing the file
type Scheme interface {
	Name() string
	// Scores returns one score per distinct file, aligned with the file
	// indexing the scheme was built with.
	Scores() []float64
}

// staticScheme wraps a precomputed score vector.
type staticScheme struct {
	name   string
	scores []float64
}

func (s staticScheme) Name() string      { return s.name }
func (s staticScheme) Scores() []float64 { return s.scores }

// Perfect builds the complete-knowledge scheme from true replica counts.
func Perfect(replicas []int) Scheme {
	scores := make([]float64, len(replicas))
	for i, r := range replicas {
		scores[i] = float64(r)
	}
	return staticScheme{name: "Perfect", scores: scores}
}

// Random builds the uniform-noise baseline.
func Random(n int, seed int64) Scheme {
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	return staticScheme{name: "Random", scores: scores}
}

// TF builds the Term Frequency scheme: a file is as rare as its rarest
// term. fileTerms lists each file's terms; termFreq is the instance
// frequency of each term, as an ultrapeer would estimate from the
// query-result traffic it forwards.
func TF(fileTerms [][]string, termFreq map[string]int) Scheme {
	scores := make([]float64, len(fileTerms))
	for i, terms := range fileTerms {
		minF := math.Inf(1)
		for _, t := range terms {
			if f := float64(termFreq[t]); f < minF {
				minF = f
			}
		}
		scores[i] = minF
	}
	return staticScheme{name: "TF", scores: scores}
}

// TPF builds the Term-Pair Frequency scheme over ordered adjacent pairs.
// Files with fewer than two terms fall back to their TF score.
func TPF(fileTerms [][]string, pairFreq map[[2]string]int, termFreq map[string]int) Scheme {
	scores := make([]float64, len(fileTerms))
	for i, terms := range fileTerms {
		minF := math.Inf(1)
		for j := 0; j+1 < len(terms); j++ {
			if f := float64(pairFreq[[2]string{terms[j], terms[j+1]}]); f < minF {
				minF = f
			}
		}
		if math.IsInf(minF, 1) {
			for _, t := range terms {
				if f := float64(termFreq[t]); f < minF {
					minF = f
				}
			}
		}
		scores[i] = minF
	}
	return staticScheme{name: "TPF", scores: scores}
}

// SAM builds the Sampling scheme: score = replicas observed on a random
// sample of sampleFrac of all hosts (a lower-bound estimate of the true
// count). SAM(1.0) equals Perfect; SAM(0) degenerates to Random.
func SAM(placement [][]int32, hosts int, sampleFrac float64, seed int64) Scheme {
	rng := rand.New(rand.NewSource(seed))
	sampled := make([]bool, hosts)
	for i := range sampled {
		sampled[i] = rng.Float64() < sampleFrac
	}
	scores := make([]float64, len(placement))
	for i, hostList := range placement {
		n := 0
		for _, h := range hostList {
			if sampled[h] {
				n++
			}
		}
		scores[i] = float64(n)
	}
	name := "SAM"
	switch {
	case sampleFrac >= 1:
		name = "SAM(100%)"
	case sampleFrac <= 0:
		name = "SAM(0%)"
	default:
		name = "SAM(" + itoa(int(sampleFrac*100+0.5)) + "%)"
	}
	return staticScheme{name: name, scores: scores}
}

// SelectBudget publishes files in ascending score order until the chosen
// files cover budgetFrac of all file instances — the publishing budget on
// the x-axis of Figures 13–15. Ties are broken randomly so coarse scores
// (e.g. SAM with a tiny sample) do not bias toward low file ranks.
func SelectBudget(s Scheme, replicas []int, budgetFrac float64, seed int64) []bool {
	scores := s.Scores()
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	tie := make([]float64, len(scores))
	for i := range tie {
		tie[i] = rng.Float64()
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if scores[i] != scores[j] {
			return scores[i] < scores[j]
		}
		return tie[i] < tie[j]
	})
	total := 0
	for _, r := range replicas {
		total += r
	}
	budget := int(budgetFrac * float64(total))
	out := make([]bool, len(scores))
	used := 0
	for _, i := range order {
		if used >= budget {
			break
		}
		if math.IsInf(scores[i], 1) {
			break // QRS: never-observed files cannot be published
		}
		if used+replicas[i] > budget {
			continue // would overshoot; a smaller item may still fit
		}
		out[i] = true
		used += replicas[i]
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
