// Package model implements the paper's analytical model of hybrid search
// (§6.1, Equations 1–5): the probability a flooded query finds an item
// given its replica count, the recall of the Gnutella+DHT hybrid, and the
// search/publish cost accounting. It also provides the trace-driven
// expected-recall evaluators behind Figures 11–15.
package model

import "math"

// PFGnutella is Equation (2): the probability a query flooded to horizon
// nodes (of n total) finds at least one of the r randomly placed replicas.
//
//	PF = 1 - prod_{j=0}^{horizon-1} (1 - r/(n-j))
func PFGnutella(r, n, horizon int) float64 {
	if r <= 0 || n <= 0 || horizon <= 0 {
		return 0
	}
	if r >= n || horizon >= n {
		return 1
	}
	// Closed form via the hypergeometric zero-draw probability:
	// P(miss) = C(n-r, horizon)/C(n, horizon), evaluated with log-gamma so
	// the trace-driven recall sweeps stay O(1) per item.
	if n-r < horizon {
		return 1 // more replicas than unvisited nodes: always found
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	logMiss := lg(n-r) + lg(n-horizon) - lg(n-r-horizon) - lg(n)
	return 1 - math.Exp(logMiss)
}

// PFHybrid is Equation (1): the probability an item is found in the hybrid
// system, where pfDHT is the probability the item was published (found
// with certainty by the DHT if so).
//
//lint:allow unusedexport the paper's Eq. 1, pinned by this package's tests
func PFHybrid(pfGnutella, pfDHT float64) float64 {
	return pfGnutella + (1-pfGnutella)*pfDHT
}

// PFThreshold is the lower bound Figure 9 plots: with every item of
// replica count <= threshold published, the worst-off item has
// threshold+1 replicas and must be found by flooding alone.
func PFThreshold(threshold, n, horizon int) float64 {
	return PFGnutella(threshold+1, n, horizon)
}

// Costs bundles the per-item cost model of Equations (3)–(5).
//
//lint:allow unusedexport holds the cost terms of the paper's Eq. 4
type Costs struct {
	N           int     // network size
	Horizon     int     // nodes visited by a flood
	QueryFreq   float64 // Qi: queries per time unit for this item
	Lifetime    float64 // Ti: item lifetime in time units
	PublishCost float64 // CPi,DHT: messages to publish the item + postings
}

// SearchCost is Equation (3): cost per time unit of querying the item in
// the hybrid system. dhtSearchCost is CSi,DHT, typically log2(N) messages
// with the InvertedCache option.
func (c Costs) SearchCost(pfGnutella, dhtSearchCost float64) float64 {
	return c.QueryFreq * (float64(c.Horizon-1) + (1-pfGnutella)*dhtSearchCost)
}

// TotalCost is Equation (4): search cost plus amortised publishing.
//
//lint:allow unusedexport the paper's Eq. 4, pinned by this package's tests
func (c Costs) TotalCost(pfGnutella, pfDHT, dhtSearchCost float64) float64 {
	return c.SearchCost(pfGnutella, dhtSearchCost) + pfDHT*c.PublishCost/c.Lifetime
}

// DHTSearchCost returns the customary CSi,DHT = log2(N) message cost of a
// DHT lookup (with the InvertedCache option, §6.1).
func DHTSearchCost(n int) float64 {
	if n < 2 {
		return 1
	}
	return math.Log2(float64(n))
}

// TotalPublishCost is Equation (5) over a population: the sum of each
// item's publish cost weighted by its publication probability.
//
//lint:allow unusedexport the paper's Eq. 5, pinned by this package's tests
func TotalPublishCost(published []bool, perItemCost []float64) float64 {
	total := 0.0
	for i, p := range published {
		if p {
			total += perItemCost[i]
		}
	}
	return total
}

// PublishedInstanceFrac returns the publishing overhead of Figure 10 and
// the x-axis of Figures 13–15: the fraction of file instances (replicas
// counted) that the published set covers.
func PublishedInstanceFrac(replicas []int, published []bool) float64 {
	pub, total := 0, 0
	for i, r := range replicas {
		total += r
		if published[i] {
			pub += r
		}
	}
	if total == 0 {
		return 0
	}
	return float64(pub) / float64(total)
}

// PublishUpToThreshold returns the published set of the complete-knowledge
// scheme of §6.2: every item with replicas <= threshold.
func PublishUpToThreshold(replicas []int, threshold int) []bool {
	out := make([]bool, len(replicas))
	for i, r := range replicas {
		out[i] = r <= threshold
	}
	return out
}

// AvgQueryRecall evaluates the expected Query Recall (QR, §4.2) of the
// hybrid system over a workload. resultSets[q] lists the distinct-file
// indices matching query q; replicas[i] and published[i] describe item i.
// horizonFrac is the fraction of nodes a flood visits.
//
// Per query: published items contribute all their replicas; unpublished
// items contribute the expected horizonFrac of theirs. Queries with no
// available results are skipped (recall undefined), as in the paper.
func AvgQueryRecall(resultSets [][]int, replicas []int, published []bool, horizonFrac float64) float64 {
	sum, n := 0.0, 0
	for _, files := range resultSets {
		if len(files) == 0 {
			continue
		}
		found, total := 0.0, 0.0
		for _, f := range files {
			r := float64(replicas[f])
			total += r
			if published[f] {
				found += r
			} else {
				found += r * horizonFrac
			}
		}
		sum += found / total
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// AvgQueryDistinctRecall evaluates the expected Query Distinct Recall
// (QDR): per query, each distinct matching item counts once, found with
// probability 1 if published and PFGnutella otherwise. This is exactly
// the average of Equation (1) over the query's items.
func AvgQueryDistinctRecall(resultSets [][]int, replicas []int, published []bool, n, horizon int) float64 {
	sum, cnt := 0.0, 0
	for _, files := range resultSets {
		if len(files) == 0 {
			continue
		}
		found := 0.0
		for _, f := range files {
			if published[f] {
				found++
			} else {
				found += PFGnutella(replicas[f], n, horizon)
			}
		}
		sum += found / float64(len(files))
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return 100 * sum / float64(cnt)
}
