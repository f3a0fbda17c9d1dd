package tensor

import "fmt"

// Flat vector helpers operating on []float32. The optimizer keeps its master
// weights and Adam moments as flat FP32 vectors (one per parameter group),
// matching the flattened layout of DeepSpeed optimizer files that makes
// layer-level splitting hard — the core problem §4.1 of the paper solves.

// Dot returns the float64 dot product of x and y.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}

// SumSq returns the float64 sum of squares of x.
func SumSq(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}
