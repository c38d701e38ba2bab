package atomicfloat

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddLoadStore(t *testing.T) {
	var bits uint64
	Store(&bits, 1.5)
	if got := Load(&bits); got != 1.5 {
		t.Fatalf("Load = %v, want 1.5", got)
	}
	Add(&bits, 2.25)
	if got := Load(&bits); got != 3.75 {
		t.Fatalf("after Add, Load = %v, want 3.75", got)
	}
}

func TestConcurrentAddExact(t *testing.T) {
	// Sums of powers of two are exact in float64 regardless of order, so the
	// result must be exactly deterministic if every Add is applied once.
	var bits uint64
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Add(&bits, 0.25)
			}
		}()
	}
	wg.Wait()
	want := float64(workers*perWorker) * 0.25
	if got := Load(&bits); got != want {
		t.Fatalf("concurrent sum = %v, want %v (lost updates)", got, want)
	}
}

func TestSliceBasics(t *testing.T) {
	f := make([]float64, 4)
	s := View(f)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Store(2, 5)
	s.Add(2, 1)
	if got := s.Load(2); got != 6 {
		t.Fatalf("Load(2) = %v, want 6", got)
	}
	if f[2] != 6 || f[0] != 0 {
		t.Fatalf("viewed slice = %v", f)
	}
}

// A view is the argument's own storage in both directions: updates through
// the view land in the slice (bit patterns included), and plain writes to the
// slice are what the view reads and adds onto.
func TestViewAliasesArgument(t *testing.T) {
	f := []float64{1, 2, 3}
	s := View(f[1:])
	s.AddRange(0, []float64{10, 20})
	if f[0] != 1 || f[1] != 12 || f[2] != 23 {
		t.Fatalf("after AddRange through view, f = %v", f)
	}
	f[2] = math.Copysign(0, -1)
	if !math.Signbit(s.Load(1)) {
		t.Fatal("view does not see a plain write's bit pattern")
	}
	s.Add(1, 4)
	if f[2] != 4 {
		t.Fatalf("Add after plain write: f[2] = %v, want 4", f[2])
	}
}

func TestViewZeroLength(t *testing.T) {
	for _, f := range [][]float64{nil, {}, make([]float64, 4)[4:]} {
		s := View(f)
		if s.Len() != 0 {
			t.Fatalf("Len = %d, want 0", s.Len())
		}
		s.AddRange(0, nil)
	}
}

func TestAddRange(t *testing.T) {
	got := make([]float64, 6)
	s := View(got)
	s.AddRange(2, []float64{1, 2, 3})
	s.AddRange(2, []float64{10, 0, 30})
	want := []float64{0, 0, 11, 2, 33, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AddRange result %v, want %v", got, want)
		}
	}
}

// Concurrent AddRange through a view loses no update, and the sums are read
// back from the viewed slice itself once the writers have joined.
func TestConcurrentAddRange(t *testing.T) {
	f := make([]float64, 8)
	s := View(f)
	vals := []float64{0.5, 1, 1.5, 2}
	const workers = 8
	const reps = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				s.AddRange(3, vals)
			}
		}()
	}
	wg.Wait()
	for i, v := range vals {
		want := v * workers * reps
		if got := f[3+i]; got != want {
			t.Fatalf("element %d = %v, want %v", 3+i, got, want)
		}
	}
}

func TestAddMatchesPlainSum(t *testing.T) {
	f := func(vals []float64) bool {
		var bits uint64
		var plain float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			Add(&bits, v)
			plain += v
		}
		got := Load(&bits)
		return got == plain || math.Abs(got-plain) <= 1e-12*math.Abs(plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSpecialValues(t *testing.T) {
	var bits uint64
	Store(&bits, math.Inf(1))
	if !math.IsInf(Load(&bits), 1) {
		t.Fatal("Inf roundtrip failed")
	}
	Store(&bits, math.Copysign(0, -1))
	if !math.Signbit(Load(&bits)) {
		t.Fatal("-0 roundtrip failed")
	}
}
