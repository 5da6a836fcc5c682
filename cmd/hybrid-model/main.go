// Command hybrid-model reproduces the paper's analytical-model experiments
// (§6.2, Figures 9–12): find-probability bounds, publishing overhead, and
// recall as a function of the replica threshold, with complete knowledge
// of replica counts.
//
// Usage:
//
//	hybrid-model [-scale 0.25] [-seed 1]
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
	fmt.Printf("model over %d hosts, %d file instances (%d distinct), %d queries\n\n",
		env.Trace.Cfg.Hosts, env.Trace.TotalInstances(), len(env.Trace.Files), len(env.Trace.Queries))

	fmt.Println("== Figure 9: PF-threshold vs replica threshold (Equation 2) ==")
	fmt.Println(experiments.Table("threshold", experiments.Figure9(env)...))

	fmt.Println("== Figure 10: publishing overhead (% items) vs replica threshold ==")
	fmt.Println("   (paper anchor: threshold 1 publishes 23% of items)")
	fmt.Println(experiments.Table("threshold", experiments.Figure10(env)))

	fmt.Println("== Figure 11: average query recall (QR) vs replica threshold ==")
	fmt.Println("   (paper: threshold 1 -> 47/52/61%; threshold 2 -> >64%)")
	fmt.Println(experiments.Table("threshold", experiments.Figure11(env)...))

	fmt.Println("== Figure 12: average query distinct recall (QDR) vs replica threshold ==")
	fmt.Println("   (paper: thresholds 1-2 at horizon 15% -> QR 68%, QDR 93%)")
	fmt.Println(experiments.Table("threshold", experiments.Figure12(env)...))
}
