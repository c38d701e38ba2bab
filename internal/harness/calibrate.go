package harness

import (
	"fmt"

	"twoface/internal/core"
	"twoface/internal/gen"
	"twoface/internal/model"
)

// Calibrate reproduces the paper's section 6.2 parameter fitting: it
// profiles the Two-Face executor on the twitter analog with K=32 and nine
// configurations (three stripe widths x three forced sync/async splits),
// collects per-node (features, observed times) samples, and fits the six
// model coefficients by linear regression. It returns the fitted
// coefficients, the machine-truth values they estimate, and the fit's
// quality.
//
// It stays on core directly: it sweeps ForceSplit and reads each rank's
// NodePart features, neither of which the library facade exposes.
func (c Config) Calibrate() (fitted, truth model.Coefficients, diag model.Diagnostics, err error) {
	cc := c.normalize()
	spec, err := gen.ByName("twitter")
	if err != nil {
		return fitted, truth, diag, err
	}
	w := cc.BuildWorkload(spec)
	const k = 32

	var samples []model.Sample
	widths := []int32{w.W / 2, w.W, w.W * 2}
	splits := []float64{0.25, 0.5, 0.75}
	for _, width := range widths {
		if width < 1 {
			width = 1
		}
		for _, split := range splits {
			params := cc.params(w, k)
			params.W, params.ForceSplit = width, &split
			prep, res, err := cc.twoFace(w, params, core.ExecOptions{})
			if err != nil {
				return fitted, truth, diag, fmt.Errorf("harness: calibration run (W=%d split=%.2f): %w", width, split, err)
			}
			for rank, bd := range res.Breakdowns {
				np := &prep.Nodes[rank]
				samples = append(samples, model.Sample{
					W: width, K: k,
					SyncStripes:  np.SS,
					AsyncStripes: np.SA,
					AsyncRows:    np.LA,
					AsyncNNZ:     np.NA,
					CommS:        bd.SyncComm,
					CommA:        bd.AsyncComm,
					CompA:        bd.AsyncComp,
				})
			}
		}
	}
	fitted, diag, err = model.CalibrateWithDiagnostics(samples)
	if err != nil {
		return fitted, truth, diag, err
	}
	return fitted, cc.Coef(), diag, nil
}

// Table3 renders the calibration outcome next to the machine-truth values
// (the paper's Table 3 analog for this simulated system).
func (c Config) Table3() (*Table, error) {
	fitted, truth, diag, err := c.Calibrate()
	if err != nil {
		return nil, err
	}
	rows := []string{"betaS", "alphaS", "betaA", "alphaA", "gammaA", "kappaA"}
	t := NewTable("Table 3: preprocessing coefficients (regression fit vs machine truth)",
		rows, []string{"fitted", "truth", "ratio"})
	pairs := [][2]float64{
		{fitted.BetaS, truth.BetaS},
		{fitted.AlphaS, truth.AlphaS},
		{fitted.BetaA, truth.BetaA},
		{fitted.AlphaA, truth.AlphaA},
		{fitted.GammaA, truth.GammaA},
		{fitted.KappaA, truth.KappaA},
	}
	for i, p := range pairs {
		t.Set(i, 0, p[0], "%.3g")
		t.Set(i, 1, p[1], "%.3g")
		if p[1] != 0 {
			t.Set(i, 2, p[0]/p[1], "%.2f")
		}
	}
	t.Note = fmt.Sprintf("Fitted by least squares on 9 profiled configurations of the twitter analog (3 widths x 3 forced splits), K=32.\n"+
		"Fit quality: R2(CommS)=%.3f R2(CommA)=%.3f R2(CompA)=%.3f — the residual is the multicast fan-out and\n"+
		"coalescing behaviour the two-parameter-per-equation model cannot express.",
		diag.R2CommS, diag.R2CommA, diag.R2CompA)
	return t, nil
}
