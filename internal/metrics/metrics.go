// Package metrics provides small statistical helpers shared by the
// simulators and the experiment harness: summary statistics, percentiles,
// empirical CDFs and histogram binning.
//
// All functions are pure and operate on float64 slices. Inputs are never
// mutated unless the function name says so (SortInPlace).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the population variance of xs (0 for len < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return s / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefficientOfVariation returns stddev/mean, or 0 when the mean is 0.
// It is used to quantify temporal variability of expert loads (Figure 4a).
func CoefficientOfVariation(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return Stddev(xs) / mu
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies and sorts internally.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return percentileSorted(cp, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Normalize scales xs so that it sums to 1. A zero-sum slice becomes the
// uniform distribution. The result is a new slice.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return NormalizeInPlace(out)
}

// NormalizeInPlace is Normalize overwriting xs, which it returns.
func NormalizeInPlace(xs []float64) []float64 {
	s := Sum(xs)
	if s == 0 {
		for i := range xs {
			xs[i] = 1 / float64(len(xs))
		}
		return xs
	}
	for i, x := range xs {
		xs[i] = x / s
	}
	return xs
}

// CDF is an empirical cumulative distribution function built from samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from samples. The input is copied.
func NewCDF(samples []float64) *CDF {
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	// Include equal elements.
	for idx < len(c.sorted) && c.sorted[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1).
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// Points returns up to n evenly spaced (value, cumulative-probability) points
// suitable for plotting the CDF as a step series.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	out := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / maxInt(n-1, 1)
		out = append(out, [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))})
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Histogram bins samples into nbins equal-width bins over [lo, hi].
// Samples outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram with nbins bins covering [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		nbins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	n := len(h.Counts)
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(n))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
}

// Total returns the number of recorded samples.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Matrix is a dense row-major float64 matrix used for traffic matrices.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CopyFrom overwrites m with src's contents. The matrices must have equal
// dimensions; it is the allocation-free alternative to Clone for callers
// holding a persistent destination buffer.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("metrics: CopyFrom %dx%d into %dx%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	copy(m.Data, src.Data)
}

// Scale multiplies every element by f, in place, and returns m.
func (m *Matrix) Scale(f float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= f
	}
	return m
}

// Total returns the sum of all elements.
func (m *Matrix) Total() float64 { return Sum(m.Data) }

// RowSums returns the per-row sums.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j)
		}
		out[i] = s
	}
	return out
}

// ColSums returns the per-column sums.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += m.At(i, j)
		}
		out[j] = s
	}
	return out
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes m's transpose into dst, which must be Cols×Rows and
// not alias m. It is the allocation-free alternative to Transpose for
// callers holding a reusable scratch matrix.
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("metrics: TransposeInto %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			dst.Set(j, i, m.At(i, j))
		}
	}
}

// Sparsity returns the fraction of entries whose value is below frac times
// the matrix mean. It quantifies the "sparse all-to-all" property (§3).
func (m *Matrix) Sparsity(frac float64) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	mean := m.Total() / float64(len(m.Data))
	if mean == 0 {
		return 1
	}
	n := 0
	for _, v := range m.Data {
		if v < frac*mean {
			n++
		}
	}
	return float64(n) / float64(len(m.Data))
}

// String renders the matrix compactly for debugging.
func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%8.2f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
