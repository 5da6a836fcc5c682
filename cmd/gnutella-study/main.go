// Command gnutella-study reproduces the paper's Gnutella measurement study
// (§4): Figures 4–8, the §4.2 headline aggregates, and the §4.1 crawl.
//
// Usage:
//
//	gnutella-study [-scale 0.25] [-seed 1] [-fig8-ups 20000]
//
// Scale 1.0 is the paper's trace size (75,129 hosts / ~315k files / 700
// queries); smaller scales preserve the distribution shapes.
package main

import (
	"flag"
	"fmt"
	"log"

	"piersearch/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 0.25, "study scale relative to the paper's trace")
	seed := flag.Int64("seed", 1, "deterministic seed")
	fig8UPs := flag.Int("fig8-ups", 20000, "ultrapeer graph size for Figure 8")
	flag.Parse()
	log.SetFlags(0)

	env, err := experiments.NewStudyEnv(experiments.StudyConfig{Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("study environment: %d hosts, %d ultrapeers, %d file instances (%d distinct), %d queries\n\n",
		env.Topo.NumHosts(), env.Topo.NumUltrapeers(), env.Trace.TotalInstances(),
		len(env.Trace.Files), len(env.Trace.Queries))

	crawl := experiments.CrawlStudy(env)
	fmt.Printf("== Crawl (cf. §4.1: ~100k nodes, ~20M files, 45 minutes) ==\n")
	fmt.Printf("hosts seen: %d   ultrapeers: %d   files shared: %d   est. duration: %v\n\n",
		crawl.HostsSeen, crawl.UltrapeersSeen, crawl.FilesEstimate, crawl.EstimatedDuration)

	fmt.Println("== Figure 4: result-set size vs average replication factor ==")
	f4 := experiments.Figure4(env)
	fmt.Println(experiments.Table("avg-replication", experiments.Series{Name: "results-size", Points: f4.Points}))

	fmt.Println("== Figure 5: result-size CDF (% of queries with <= X results) ==")
	fmt.Println(experiments.Table("results", experiments.Figure5(env)...))

	fmt.Println("== Figure 6: result-size CDF, <= 20 results, growing unions ==")
	fmt.Println(experiments.Table("results", experiments.Figure6(env)...))

	a := experiments.Aggregates(env)
	fmt.Println("== §4.2 aggregates (paper: 41% / 18% single; 27% / 6% union; >=66% reduction) ==")
	fmt.Printf("single node: %.1f%% of queries <= 10 results, %.1f%% with none\n", a.PctAtMost10Single, a.PctZeroSingle)
	fmt.Printf("union-of-30: %.1f%% of queries <= 10 results, %.1f%% with none\n", a.PctAtMost10Union, a.PctZeroUnion)
	fmt.Printf("potential zero-result reduction: %.0f%%\n\n", a.ZeroReductionPct)

	fmt.Println("== Figure 7: result-set size vs first-result latency (seconds) ==")
	f7 := experiments.Figure7(env)
	fmt.Println(experiments.Table("results-size", experiments.Series{Name: "first-result (s)", Points: f7.Points}))

	fmt.Println("== Figure 8: flooding overhead (messages vs ultrapeers visited) ==")
	f8, err := experiments.Figure8(experiments.Figure8Config{Ultrapeers: *fig8UPs, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.Table("messages (k)", f8))
}
