package harness

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose; must not mutate
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("P50 = %v, want 3", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("P0 = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Fatalf("P100 = %v, want 5", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("P25 = %v, want 2 (closest-rank interpolation)", got)
	}
	if got := Percentile([]float64{1, 2}, 75); got != 1.75 {
		t.Fatalf("P75 of {1,2} = %v, want 1.75", got)
	}
	if xs[0] != 5 {
		t.Fatal("Percentile sorted its input in place")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("P50 of empty sample should be NaN")
	}
}
