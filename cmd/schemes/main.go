// Command schemes reproduces the rare-item identification comparison (§6.3,
// Figures 13–15): Perfect, SAM, TPF, TF and Random schemes evaluated on
// average query recall and distinct recall against the publishing budget.
//
// Usage:
//
//	schemes [-scale 0.25] [-seed 1]
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
	flag.Parse()
	log.SetFlags(0)

	env, err := experiments.NewStudyEnv(experiments.StudyConfig{Scale: *scale, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schemes over %d distinct files (%d instances), %d queries, horizon 5%%\n\n",
		len(env.Trace.Files), env.Trace.TotalInstances(), len(env.Trace.Queries))

	fmt.Println("== Figure 13: average query recall vs publishing budget (% items) ==")
	fmt.Println(experiments.Table("budget %", experiments.Figure13(env)...))

	fmt.Println("== Figure 14: average query distinct recall vs publishing budget ==")
	fmt.Println(experiments.Table("budget %", experiments.Figure14(env)...))

	fmt.Println("== Figure 15: SAM sampling fractions vs Random ==")
	fmt.Println(experiments.Table("budget %", experiments.Figure15(env)...))

	fmt.Println("== Extension: TF with Bloom-encoded term sets (§6.3 suggestion) ==")
	fmt.Printf("%-22s %12s %10s %8s\n", "scheme", "filter bytes", "fp rate", "avg QR")
	for _, p := range experiments.TFBloomSweep(env, 0.3) {
		fb, fp := "-", "-"
		if p.FilterBytes > 0 {
			fb = fmt.Sprintf("%d", p.FilterBytes)
			fp = fmt.Sprintf("%.4f", p.FPRate)
		}
		fmt.Printf("%-22s %12s %10s %8.1f\n", p.Name, fb, fp, p.AvgQR)
	}
	fmt.Println()

	fmt.Println("== Extension: recall vs system load (§4.3 future work) ==")
	fmt.Println(experiments.Table("load (k msgs/query)", experiments.ExtensionHorizonLoad(env)...))

	fmt.Println("== Extension: Eq. 3-5 cost model, QDR vs total cost/query ==")
	fmt.Println(experiments.Table("cost (k msgs/query)", experiments.ExtensionCostRecall(env, 5)))
}
