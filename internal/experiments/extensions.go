package experiments

// Extensions: experiments the paper defers to future work, built on the
// same substrates.
//
//   - ExtensionHorizonLoad quantifies §4.3's open question: what does
//     raising the flooding horizon cost in system load, and what recall
//     does it buy, compared with the hybrid's partial index?
//   - ExtensionCostRecall sweeps the full Eq. 3–5 cost model against the
//     recall it purchases, locating the replica-threshold sweet spot.
//   - ExtensionTFBloom evaluates §6.3's suggested Bloom-filter encoding of
//     the term-frequency tables.

import (
	"piersearch/internal/gnutella"
	"piersearch/internal/hybrid"
	"piersearch/internal/model"
)

// loadAt approximates the per-query system load (messages) of flooding a
// horizon of k ultrapeers: every reached ultrapeer forwards on all its
// other links (duplicate-suppressed flooding), so the message count is the
// out-degree sum over the horizon.
func (e *StudyEnv) loadAt(frac float64) float64 {
	k := int(frac * float64(e.Topo.NumUltrapeers()))
	if k < 1 {
		k = 1
	}
	total := 0.0
	for _, v := range e.Vantages {
		msgs := 0
		for _, u := range gnutella.ReachFirstK(e.Topo, v, k) {
			msgs += e.Topo.Degree(u)
		}
		total += float64(msgs)
	}
	return total / float64(len(e.Vantages))
}

// ExtensionHorizonLoad returns two series over per-query load (thousands
// of messages): the QDR of flooding alone as the horizon grows, and the
// QDR of the hybrid (5% horizon + replica-threshold-2 partial index) with
// its amortised publishing load added. The hybrid's point sits far above
// the flooding curve at the same load — the paper's §4.3 argument made
// quantitative.
func ExtensionHorizonLoad(env *StudyEnv) []Series {
	replicas := env.Replicas()
	n := env.Trace.Cfg.Hosts
	none := make([]bool, len(replicas))

	flood := Series{Name: "flooding only"}
	for _, pct := range []float64{0.025, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50} {
		qdr := model.AvgQueryDistinctRecall(env.Matching, replicas, none, n, int(pct*float64(n)))
		flood.Add(env.loadAt(pct)/1000, qdr)
	}

	// Hybrid: flood 5% + publish items with <= 2 replicas. Publishing
	// costs terms x log2(N) messages per item instance, paid once per item
	// lifetime and amortised over the queries issued during that lifetime.
	// The trace's queries are a sample of the live workload (one ultrapeer
	// alone sees ~30k results/hour, §5), so a lifetime covers many times
	// the sampled workload; lifetimeWorkloadFactor scales it.
	const lifetimeWorkloadFactor = 10
	published := model.PublishUpToThreshold(replicas, 2)
	dhtCost := model.DHTSearchCost(n)
	publishMsgs := 0.0
	for i, pub := range published {
		if pub {
			publishMsgs += float64(len(env.Trace.Files[i].Terms)) * dhtCost * float64(replicas[i])
		}
	}
	perQueryPublish := publishMsgs / (lifetimeWorkloadFactor * float64(len(env.Trace.Queries)))
	qdr := model.AvgQueryDistinctRecall(env.Matching, replicas, published, n, n/20)
	hybridSeries := Series{Name: "hybrid (5% + thr 2)"}
	hybridSeries.Add((env.loadAt(0.05)+perQueryPublish)/1000, qdr)
	return []Series{flood, hybridSeries}
}

// ExtensionCostRecall sweeps the replica threshold and reports, per
// threshold, the total Eq. 4 cost per query (messages: flood + DHT
// re-query for misses + amortised publishing) against the QDR it buys.
func ExtensionCostRecall(env *StudyEnv, horizonPct int) Series {
	replicas := env.Replicas()
	n := env.Trace.Cfg.Hosts
	horizon := n * horizonPct / 100
	dhtCost := model.DHTSearchCost(n)
	queries := float64(len(env.Trace.Queries))

	out := Series{Name: "QDR vs cost/query (thr 0..10)"}
	for thr := 0; thr <= 10; thr++ {
		published := model.PublishUpToThreshold(replicas, thr)
		qdr := model.AvgQueryDistinctRecall(env.Matching, replicas, published, n, horizon)

		// Search cost: every query floods the horizon; queries whose items
		// were all missed re-issue into the DHT (approximate with the
		// average miss probability over the workload).
		missMass := 0.0
		for _, files := range env.Matching {
			if len(files) == 0 {
				missMass++
				continue
			}
			pMissAll := 1.0
			for _, f := range files {
				pf := 1.0
				if !published[f] {
					pf = model.PFGnutella(replicas[f], n, horizon)
				}
				pMissAll *= 1 - pf
			}
			missMass += pMissAll
		}
		searchCost := float64(horizon-1) + missMass/queries*dhtCost

		publishMsgs := 0.0
		for i, pub := range published {
			if pub {
				publishMsgs += float64(len(env.Trace.Files[i].Terms)) * dhtCost * float64(replicas[i])
			}
		}
		total := searchCost + publishMsgs/queries
		out.Add(total/1000, qdr)
	}
	return out
}

// ExtensionTFBloom compares exact TF against Bloom-encoded TF at several
// filter sizes, on average QR at a fixed budget: the accuracy price of
// §6.3's storage optimisation.
type TFBloomPoint struct {
	Name        string
	FilterBytes int
	FPRate      float64
	AvgQR       float64
}

// TFBloomSweep evaluates the scheme family.
func TFBloomSweep(env *StudyEnv, budget float64) []TFBloomPoint {
	replicas := env.Replicas()
	termFreq := env.Trace.TermInstanceFrequency()
	fileTerms := env.FileTerms()
	const rareThreshold = 8

	eval := func(s hybrid.Scheme) float64 {
		pub := hybrid.SelectBudget(s, replicas, budget, env.Cfg.Seed+51)
		return model.AvgQueryRecall(env.Matching, replicas, pub, 0.05)
	}

	out := []TFBloomPoint{{
		Name:  "TF (exact)",
		AvgQR: eval(hybrid.TF(fileTerms, termFreq)),
	}}
	for _, bits := range []uint64{1 << 18, 1 << 15, 1 << 12} {
		s := hybrid.NewTFBloom(fileTerms, termFreq, rareThreshold, bits)
		out = append(out, TFBloomPoint{
			Name:        "TF-Bloom " + itoa(s.FilterBytes()) + "B",
			FilterBytes: s.FilterBytes(),
			FPRate:      s.FalsePositiveRate(),
			AvgQR:       eval(s),
		})
	}
	out = append(out, TFBloomPoint{
		Name:  "Random",
		AvgQR: eval(hybrid.Random(len(replicas), env.Cfg.Seed+52)),
	})
	return out
}
