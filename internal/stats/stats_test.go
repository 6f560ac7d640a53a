package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean not 0")
	}
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12) {
		t.Fatal("mean wrong")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Fatal("single-sample variance not 0")
	}
	// Known: variance of {2,4,4,4,5,5,7,9} (sample) = 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Variance(xs), 32.0/7, 1e-12) {
		t.Fatalf("variance=%v, want %v", Variance(xs), 32.0/7)
	}
	if !almost(StdDev(xs), math.Sqrt(32.0/7), 1e-12) {
		t.Fatal("stddev wrong")
	}
}

func TestTCrit95(t *testing.T) {
	if !math.IsInf(TCrit95(0), 1) {
		t.Fatal("df=0 should be +Inf")
	}
	if !almost(TCrit95(1), 12.706, 1e-9) {
		t.Fatal("df=1 critical value")
	}
	if !almost(TCrit95(19), 2.093, 1e-9) {
		t.Fatal("df=19 critical value (the paper's 20-sample experiments)")
	}
	if !almost(TCrit95(1000), 1.96, 1e-9) {
		t.Fatal("large df should fall back to 1.96")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{10, 10, 10})
	if s.Mean != 10 || s.HalfWidth != 0 {
		t.Fatalf("constant sample: %+v", s)
	}
	s1 := Summarize([]float64{8, 12})
	// sd = √8, hw = 12.706·√8/√2 = 12.706·2 = 25.412.
	if !almost(s1.HalfWidth, 25.412, 1e-9) {
		t.Fatalf("hw=%v, want 25.412", s1.HalfWidth)
	}
	if Summarize(nil).HalfWidth != 0 {
		t.Fatal("empty summary hw")
	}
}

func TestQuickCIContainsMeanShift(t *testing.T) {
	// Shifting a sample shifts the mean and preserves the half-width.
	f := func(raw []float64, shiftRaw int8) bool {
		if len(raw) < 2 || len(raw) > 40 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		shift := float64(shiftRaw)
		shifted := make([]float64, len(raw))
		for i, x := range raw {
			shifted[i] = x + shift
		}
		a, b := Summarize(raw), Summarize(shifted)
		return almost(b.Mean, a.Mean+shift, 1e-6) && almost(a.HalfWidth, b.HalfWidth, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		return Variance(raw) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
