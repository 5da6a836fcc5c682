package experiments

import (
	"piersearch/internal/hybrid"
	"piersearch/internal/model"
)

// horizonPercents are the search-horizon fractions §6.2 sweeps.
var horizonPercents = []int{5, 15, 30}

// Figure9 plots the lower-bound find probability PF-threshold against the
// replica threshold for each horizon percentage (Equation 2).
func Figure9(env *StudyEnv) []Series {
	n := env.Trace.Cfg.Hosts
	var out []Series
	for _, hp := range horizonPercents {
		s := Series{Name: "Horizon Percent=" + itoa(hp) + "%"}
		horizon := n * hp / 100
		for thr := 0; thr <= 20; thr++ {
			s.Add(float64(thr), model.PFThreshold(thr, n, horizon))
		}
		out = append(out, s)
	}
	return out
}

// Figure10 plots the publishing overhead (% of file instances published)
// against the replica threshold under complete knowledge.
func Figure10(env *StudyEnv) Series {
	replicas := env.Replicas()
	s := Series{Name: "publishing overhead (% items)"}
	for thr := 0; thr <= 20; thr++ {
		pub := model.PublishUpToThreshold(replicas, thr)
		s.Add(float64(thr), 100*model.PublishedInstanceFrac(replicas, pub))
	}
	return s
}

// Figure11 plots average Query Recall against the replica threshold for
// each horizon percentage, with complete-knowledge publishing.
func Figure11(env *StudyEnv) []Series {
	replicas := env.Replicas()
	var out []Series
	for _, hp := range horizonPercents {
		s := Series{Name: "Horizon Percent=" + itoa(hp) + "%"}
		for thr := 0; thr <= 10; thr++ {
			pub := model.PublishUpToThreshold(replicas, thr)
			s.Add(float64(thr), model.AvgQueryRecall(env.Matching, replicas, pub, float64(hp)/100))
		}
		out = append(out, s)
	}
	return out
}

// Figure12 plots average Query Distinct Recall against the replica
// threshold for each horizon percentage.
func Figure12(env *StudyEnv) []Series {
	replicas := env.Replicas()
	n := env.Trace.Cfg.Hosts
	var out []Series
	for _, hp := range horizonPercents {
		s := Series{Name: "Horizon Percent=" + itoa(hp) + "%"}
		horizon := n * hp / 100
		for thr := 0; thr <= 10; thr++ {
			pub := model.PublishUpToThreshold(replicas, thr)
			s.Add(float64(thr), model.AvgQueryDistinctRecall(env.Matching, replicas, pub, n, horizon))
		}
		out = append(out, s)
	}
	return out
}

// budgets are the publishing budgets (fraction of instances) Figures 13–15
// sweep on the x-axis.
var budgets = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// schemeSet builds the §5 schemes over the study trace.
func schemeSet(env *StudyEnv) []hybrid.Scheme {
	replicas := env.Replicas()
	return []hybrid.Scheme{
		hybrid.Perfect(replicas),
		hybrid.SAM(env.Placement, env.Trace.Cfg.Hosts, 0.15, env.Cfg.Seed+11),
		hybrid.TPF(env.FileTerms(), env.Trace.PairInstanceFrequency(), env.Trace.TermInstanceFrequency()),
		hybrid.TF(env.FileTerms(), env.Trace.TermInstanceFrequency()),
		hybrid.Random(len(replicas), env.Cfg.Seed+12),
	}
}

// sweepSchemes evaluates recall-vs-budget for a set of schemes.
func sweepSchemes(env *StudyEnv, schemes []hybrid.Scheme, distinct bool, horizonPct int) []Series {
	replicas := env.Replicas()
	n := env.Trace.Cfg.Hosts
	horizon := n * horizonPct / 100
	var out []Series
	for _, sch := range schemes {
		s := Series{Name: sch.Name()}
		for _, b := range budgets {
			pub := hybrid.SelectBudget(sch, replicas, b, env.Cfg.Seed+21)
			var y float64
			if distinct {
				y = model.AvgQueryDistinctRecall(env.Matching, replicas, pub, n, horizon)
			} else {
				y = model.AvgQueryRecall(env.Matching, replicas, pub, float64(horizonPct)/100)
			}
			s.Add(100*b, y)
		}
		out = append(out, s)
	}
	return out
}

// Figure13 compares the rare-item schemes on average Query Recall as a
// function of the publishing budget (horizon 5%).
func Figure13(env *StudyEnv) []Series {
	return sweepSchemes(env, schemeSet(env), false, 5)
}

// Figure14 is Figure13 with the Query Distinct Recall metric.
func Figure14(env *StudyEnv) []Series {
	return sweepSchemes(env, schemeSet(env), true, 5)
}

// Figure15 compares SAM sampling fractions (100%, 15%, 5%) against Random
// (= SAM 0%) on average Query Recall.
func Figure15(env *StudyEnv) []Series {
	replicas := env.Replicas()
	schemes := []hybrid.Scheme{
		hybrid.SAM(env.Placement, env.Trace.Cfg.Hosts, 1.0, env.Cfg.Seed+31),
		hybrid.SAM(env.Placement, env.Trace.Cfg.Hosts, 0.15, env.Cfg.Seed+32),
		hybrid.SAM(env.Placement, env.Trace.Cfg.Hosts, 0.05, env.Cfg.Seed+33),
		hybrid.Random(len(replicas), env.Cfg.Seed+34),
	}
	return sweepSchemes(env, schemes, false, 5)
}
