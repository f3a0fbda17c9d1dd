package tensor

import (
	"math"
	"testing"
)

func TestDotSumSq(t *testing.T) {
	x := []float32{1, 2, 3}
	if got := Dot(x, x); math.Abs(got-14) > 1e-9 {
		t.Fatalf("Dot = %v", got)
	}
	if got := SumSq(x); math.Abs(got-14) > 1e-9 {
		t.Fatalf("SumSq = %v", got)
	}
}
