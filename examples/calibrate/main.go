// Calibration walkthrough (paper section 6.2): profile the Two-Face
// executor on a calibration workload under forced configurations, fit the
// six preprocessing-model coefficients by least squares, and show how a
// plan built with the fitted coefficients performs against one built with
// the machine truth.
//
//	go run ./examples/calibrate
package main

import (
	"fmt"
	"log"

	"twoface"
	"twoface/internal/harness"
)

func main() {
	cfg := harness.Config{Scale: 0.05, Options: twoface.Options{Nodes: 4, TimingOnly: true}}
	fmt.Println("profiling 9 forced configurations of the twitter analog (3 widths x 3 splits)...")
	fitted, truth, err := cfg.Calibrate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %12s %12s\n", "coef", "fitted", "machine")
	rows := []struct {
		name string
		f, t float64
	}{
		{"betaS", fitted.BetaS, truth.BetaS},
		{"alphaS", fitted.AlphaS, truth.AlphaS},
		{"betaA", fitted.BetaA, truth.BetaA},
		{"alphaA", fitted.AlphaA, truth.AlphaA},
		{"gammaA", fitted.GammaA, truth.GammaA},
		{"kappaA", fitted.KappaA, truth.KappaA},
	}
	for _, r := range rows {
		fmt.Printf("%-8s %12.3g %12.3g\n", r.name, r.f, r.t)
	}

	// Use the fitted coefficients to drive a real plan.
	a := twoface.Generate("stokes", 0.05, 42)
	b := twoface.RandomDense(int(a.NumCols), 32, 1)
	for _, c := range []struct {
		name string
		coef twoface.Coefficients
	}{{"fitted", fitted}, {"machine truth", truth}} {
		coef := c.coef
		sys, err := twoface.New(twoface.Options{Nodes: 4, DenseColumns: 32, Coefficients: &coef})
		if err != nil {
			log.Fatal(err)
		}
		plan, err := sys.Preprocess(a)
		if err != nil {
			log.Fatal(err)
		}
		res, err := plan.Multiply(b)
		if err != nil {
			log.Fatal(err)
		}
		st := plan.Stats()
		fmt.Printf("\nwith %s coefficients: %d sync / %d async stripes, modeled %.3g s\n",
			c.name, st.SyncStripes, st.AsyncStripes, res.ModeledSeconds)
	}
}
