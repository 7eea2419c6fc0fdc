// DSE: a compact end-to-end HyperMapper run — random sampling, active
// learning with random-forest surrogates under the paper's 5 cm accuracy
// limit, Pareto front, and the extracted knowledge rules (Figure 2).
//
//	go run ./examples/dse
package main

import (
	"fmt"
	"log"

	"slamgo/internal/core"
)

func main() {
	seq, err := core.Scale{Width: 160, Height: 120, Frames: 24, Noisy: true, Seed: 42}.Sequence()
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultFig2Options()
	opts.RandomSamples = 12
	opts.ActiveIterations = 3
	opts.BatchPerIteration = 3
	opts.AccuracyLimit = 0.06
	opts.Log = func(s string) { fmt.Println("  [dse]", s) }

	fmt.Println("exploring the KinectFusion parameter space on the XU3 model…")
	fig2, err := core.RunFig2(seq, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ndefault configuration: %.1f FPS, maxATE %.4f m, %.2f W\n",
		fps(fig2.DefaultMetrics.Runtime), fig2.DefaultMetrics.MaxATE, fig2.DefaultMetrics.Power)
	if fig2.HasBestFeasible {
		fmt.Printf("best feasible found:   %.1f FPS, maxATE %.4f m, %.2f W\n",
			fps(fig2.BestFeasible.M.Runtime), fig2.BestFeasible.M.MaxATE, fig2.BestFeasible.M.Power)
		cfg, err := core.ConfigFromPoint(fig2.Space, fig2.BestFeasible.X)
		if err == nil {
			fmt.Printf("  → vr=%d csr=%d mu=%.3f pyr=%v ir=%d\n",
				cfg.VolumeResolution, cfg.ComputeSizeRatio, cfg.Mu,
				cfg.PyramidIterations, cfg.IntegrationRate)
		}
	}

	fmt.Println("\nPareto front (runtime vs max ATE):")
	for _, o := range fig2.Active.Front {
		marker := " "
		if o.M.MaxATE <= opts.AccuracyLimit {
			marker = "*" // feasible under the accuracy limit
		}
		fmt.Printf("  %s %7.1f FPS  maxATE %.4f m\n", marker, fps(o.M.Runtime), o.M.MaxATE)
	}

	fmt.Println("\nknowledge rules:")
	for _, r := range fig2.Knowledge {
		fmt.Println("  ", r)
	}
}

func fps(runtime float64) float64 {
	if runtime <= 0 {
		return 0
	}
	return 1 / runtime
}
