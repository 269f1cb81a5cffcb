package tensor

import (
	"math/bits"
	"sync"
)

// Workspace recycling for per-step scratch storage. The training and attack
// hot loops need short-lived matrices (attention intermediates, convolution
// patch buffers, gradient scratch); allocating them fresh every step makes
// the garbage collector a first-order cost (it was ~half the decryption
// attack's profile before pooling). GetMatrix/PutMatrix hand the same
// buffers back and forth through a sync.Pool instead.
//
// Contract: Get* contents are arbitrary — callers must fully overwrite
// (every Into kernel does). After Put* the caller must not retain the value
// or its backing storage.

var matrixPool sync.Pool

// GetMatrix returns a rows×cols workspace matrix with arbitrary contents.
func GetMatrix(rows, cols int) *Matrix {
	need := rows * cols
	if v := matrixPool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= need {
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:need]
			return m
		}
		// Too small for this request: drop it and allocate fresh.
	}
	return New(rows, cols)
}

// GetMatrixZero is GetMatrix with the contents cleared.
func GetMatrixZero(rows, cols int) *Matrix {
	m := GetMatrix(rows, cols)
	zeroVec(m.Data)
	return m
}

// PutMatrix returns workspace matrices to the pool. nil entries are
// ignored so deferred releases stay unconditional.
func PutMatrix(ms ...*Matrix) {
	for _, m := range ms {
		if m != nil && cap(m.Data) > 0 {
			matrixPool.Put(m)
		}
	}
}

// vecPools holds workspace slices by power-of-two size class: class k
// holds slices of capacity at least 1<<k, so a pooled slice is never too
// small for a request of its class and is never dropped for that reason
// (a single pool would hand a large request a small slice and either
// leak it to the GC or, put back, shadow every later request). Slices sit
// behind *[]float64 headers, since a bare slice stored in an interface
// boxes a fresh header on every Put; vecHeaders recycles the emptied
// headers, so a steady-state Get/Put pair allocates nothing.
var (
	vecPools   [64]sync.Pool
	vecHeaders sync.Pool
)

// GetVec returns a length-n workspace slice with arbitrary contents.
func GetVec(n int) []float64 {
	if n <= 0 {
		return make([]float64, n)
	}
	k := bits.Len(uint(n - 1)) // smallest class with 1<<k >= n
	p, _ := vecPools[k].Get().(*[]float64)
	if p == nil {
		return make([]float64, n, 1<<k)
	}
	v := (*p)[:n]
	*p = nil
	vecHeaders.Put(p)
	return v
}

// PutVec returns a workspace slice to the pool.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	p, _ := vecHeaders.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = v
	vecPools[bits.Len(uint(cap(v)))-1].Put(p) // largest class cap(v) covers
}
