// Command twoface-calibrate reproduces the paper's section 6.2 one-time
// system calibration: it profiles the Two-Face executor on the twitter
// analog under nine forced configurations and fits the six preprocessing
// coefficients by linear regression, printing them next to the simulated
// machine's true parameters (this repository's Table 3).
//
// Usage:
//
//	twoface-calibrate -p 8 -scale 0.25
package main

import (
	"flag"
	"fmt"
	"os"

	"twoface"
	"twoface/internal/harness"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.25, "matrix scale for the calibration workload")
		p     = flag.Int("p", 8, "number of simulated nodes")
		seed  = flag.Uint64("seed", 42, "generator seed")
	)
	flag.Parse()

	cfg := harness.Config{Scale: *scale, Seed: *seed, Options: twoface.Options{Nodes: *p, TimingOnly: true}}
	table, err := cfg.Table3()
	if err != nil {
		fmt.Fprintln(os.Stderr, "twoface-calibrate:", err)
		os.Exit(1)
	}
	fmt.Println(table.String())
}
