package stats

import (
	"encoding/binary"
	"fmt"
	"sort"

	"github.com/essential-stats/etlopt/internal/workflow"
)

// Histogram is an exact frequency distribution over a tuple of attributes:
// for each distinct value combination it stores the number of tuples
// carrying it. The paper's framework assumes histograms that estimate
// cardinalities accurately (Section 3.1); exact per-value counts realize
// that assumption, and bucketized approximations are future work there as
// here.
type Histogram struct {
	// Attrs are the attributes the distribution ranges over, in canonical
	// order. Values passed to Add/Freq must follow this order.
	Attrs []workflow.Attr
	// m holds bucket counts behind pointers so the per-row observation
	// path can increment an existing bucket without re-materializing its
	// key: a map *lookup* keyed by string(kbuf) is allocation-free, but a
	// map *assignment* is not, so Inc only assigns (and only then copies
	// the key) when a bucket is first seen.
	m    map[string]*int64
	kbuf []byte
}

// NewHistogram returns an empty histogram over the given attributes.
func NewHistogram(attrs ...workflow.Attr) *Histogram {
	return &Histogram{Attrs: workflow.SortAttrs(attrs), m: make(map[string]*int64)}
}

func encodeVals(vals []int64) string {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[i*8:], uint64(v))
	}
	return string(buf)
}

func decodeVals(key string) []int64 {
	out := make([]int64, len(key)/8)
	for i := range out {
		out[i] = int64(binary.BigEndian.Uint64([]byte(key[i*8 : i*8+8])))
	}
	return out
}

// Arity returns the number of attributes.
func (h *Histogram) Arity() int { return len(h.Attrs) }

// ArityError reports a value tuple whose length does not match the
// histogram's attribute arity — a mis-declared statistic, surfaced as a
// typed error so the observation layer can degrade instead of crash.
type ArityError struct {
	// Want is the histogram's arity, Got the offered tuple length.
	Want, Got int
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("histogram arity %d, got %d values", e.Want, e.Got)
}

// Add increments the bucket for the value tuple by one.
func (h *Histogram) Add(vals ...int64) error { return h.Inc(vals, 1) }

// Inc increments the bucket for the value tuple by delta. Buckets that
// reach zero are removed. Incrementing an existing bucket allocates
// nothing; the key string is materialized only on first insert.
func (h *Histogram) Inc(vals []int64, delta int64) error {
	if len(vals) != len(h.Attrs) {
		return &ArityError{Want: len(h.Attrs), Got: len(vals)}
	}
	h.kbuf = h.kbuf[:0]
	for _, v := range vals {
		h.kbuf = binary.BigEndian.AppendUint64(h.kbuf, uint64(v))
	}
	if p, ok := h.m[string(h.kbuf)]; ok {
		*p += delta
		if *p == 0 {
			delete(h.m, string(h.kbuf))
		}
		return nil
	}
	if delta != 0 {
		h.inc(string(h.kbuf), delta)
	}
	return nil
}

// inc adds delta to the bucket for an encoded key, inserting or removing
// the bucket as needed.
func (h *Histogram) inc(k string, delta int64) {
	if p, ok := h.m[k]; ok {
		*p += delta
		if *p == 0 {
			delete(h.m, k)
		}
		return
	}
	if delta != 0 {
		v := delta
		h.m[k] = &v
	}
}

// Freq returns the frequency of the value tuple.
func (h *Histogram) Freq(vals ...int64) int64 {
	if p, ok := h.m[encodeVals(vals)]; ok {
		return *p
	}
	return 0
}

// Total returns the sum of all bucket frequencies; for a histogram observed
// on relation T this equals |T| (identity rule I1).
func (h *Histogram) Total() int64 {
	var t int64
	for _, f := range h.m {
		t += *f
	}
	return t
}

// Buckets returns the number of non-empty buckets, i.e. the number of
// distinct value combinations |a_T|.
func (h *Histogram) Buckets() int { return len(h.m) }

// Each calls f for every bucket in an unspecified order.
func (h *Histogram) Each(f func(vals []int64, freq int64)) {
	for k, v := range h.m {
		f(decodeVals(k), *v)
	}
}

// EachSorted calls f for every bucket in ascending value order; used where
// deterministic output matters (reports, tests).
func (h *Histogram) EachSorted(f func(vals []int64, freq int64)) {
	keys := make([]string, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f(decodeVals(k), *h.m[k])
	}
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{Attrs: append([]workflow.Attr(nil), h.Attrs...), m: make(map[string]*int64, len(h.m))}
	for k, v := range h.m {
		f := *v
		out.m[k] = &f
	}
	return out
}

// Merge folds every bucket of other into h. Both histograms must range
// over the same attribute set. Bucket counts are integers, so addition is
// associative and the merged histogram is bit-identical to one observation
// of the combined input.
func (h *Histogram) Merge(other *Histogram) error {
	if workflow.AttrsString(h.Attrs) != workflow.AttrsString(other.Attrs) {
		return fmt.Errorf("merge: attribute sets differ: %s vs %s",
			workflow.AttrsString(h.Attrs), workflow.AttrsString(other.Attrs))
	}
	for k, f := range other.m {
		h.inc(k, *f)
	}
	return nil
}

// attrPos returns the positions of want within h.Attrs, or an error when an
// attribute is missing.
func (h *Histogram) attrPos(want []workflow.Attr) ([]int, error) {
	pos := make([]int, len(want))
	for i, a := range want {
		pos[i] = -1
		for j, b := range h.Attrs {
			if a == b {
				pos[i] = j
				break
			}
		}
		if pos[i] < 0 {
			return nil, fmt.Errorf("histogram over %s has no attribute %s", workflow.AttrsString(h.Attrs), a)
		}
	}
	return pos, nil
}

// Marginal aggregates the histogram down to the given attribute subset
// (identity rule I2: a histogram on (a,b) yields the histogram on a by
// summing over b).
func (h *Histogram) Marginal(attrs ...workflow.Attr) (*Histogram, error) {
	attrs = workflow.SortAttrs(append([]workflow.Attr(nil), attrs...))
	pos, err := h.attrPos(attrs)
	if err != nil {
		return nil, err
	}
	out := NewHistogram(attrs...)
	var rerr error
	h.Each(func(vals []int64, freq int64) {
		if rerr != nil {
			return
		}
		sub := make([]int64, len(pos))
		for i, p := range pos {
			sub[i] = vals[p]
		}
		rerr = out.Inc(sub, freq)
	})
	if rerr != nil {
		return nil, rerr
	}
	return out, nil
}

// DotProduct implements rule J1: the cardinality of an equi-join is the dot
// product of the two single-attribute join-column distributions,
// |T1 ⋈a T2| = Σ_v H1[v]·H2[v].
func DotProduct(h1, h2 *Histogram) (int64, error) {
	if h1.Arity() != 1 || h2.Arity() != 1 {
		return 0, fmt.Errorf("dot product needs single-attribute histograms, got arity %d and %d", h1.Arity(), h2.Arity())
	}
	var total int64
	small, large := h1, h2
	if large.Buckets() < small.Buckets() {
		small, large = large, small
	}
	for k, f := range small.m {
		var lf int64
		if p, ok := large.m[k]; ok {
			lf = *p
		}
		p, err := MulInt64(*f, lf)
		if err != nil {
			return 0, fmt.Errorf("dot product: bucket %v: %w", decodeVals(k), err)
		}
		total, err = AddInt64(total, p)
		if err != nil {
			return 0, fmt.Errorf("dot product: %w", err)
		}
	}
	return total, nil
}

// Join implements the generalized J2/J3 computation: given the left input's
// distribution over {join attribute} ∪ B1 and the right input's over
// {join attribute} ∪ B2, it returns the join result's distribution over
// out. The join attribute must be the same (class-canonical) attribute in
// both inputs; out may include the join attribute itself (rule J3) or any
// mix of B1 and B2 attributes (rule J2 and its multi-attribute extension).
func Join(h1, h2 *Histogram, join workflow.Attr, out []workflow.Attr) (*Histogram, error) {
	p1, err := h1.attrPos([]workflow.Attr{join})
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	p2, err := h2.attrPos([]workflow.Attr{join})
	if err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	outAttrs := workflow.SortAttrs(append([]workflow.Attr(nil), out...))
	res := NewHistogram(outAttrs...)

	// For each output attribute decide which side supplies it; the join
	// attribute can come from either.
	type src struct {
		side int // 1 or 2
		pos  int
	}
	srcs := make([]src, len(outAttrs))
	for i, a := range outAttrs {
		if pos, err := h1.attrPos([]workflow.Attr{a}); err == nil {
			srcs[i] = src{1, pos[0]}
			continue
		}
		if pos, err := h2.attrPos([]workflow.Attr{a}); err == nil {
			srcs[i] = src{2, pos[0]}
			continue
		}
		return nil, fmt.Errorf("join: output attribute %s in neither input", a)
	}

	// Group the right side's buckets by join value.
	group2 := make(map[int64][]string)
	for k := range h2.m {
		v := decodeVals(k)
		group2[v[p2[0]]] = append(group2[v[p2[0]]], k)
	}
	for k1, f1 := range h1.m {
		v1 := decodeVals(k1)
		for _, k2 := range group2[v1[p1[0]]] {
			v2 := decodeVals(k2)
			f2 := *h2.m[k2]
			vals := make([]int64, len(srcs))
			for i, s := range srcs {
				if s.side == 1 {
					vals[i] = v1[s.pos]
				} else {
					vals[i] = v2[s.pos]
				}
			}
			f, err := MulInt64(*f1, f2)
			if err != nil {
				return nil, fmt.Errorf("join: bucket %v: %w", vals, err)
			}
			if err := res.Inc(vals, f); err != nil {
				return nil, fmt.Errorf("join: %w", err)
			}
		}
	}
	return res, nil
}

// Multiply implements the paper's ⟨H1|H2⟩ operator: bucket-wise product of
// two histograms over the same attribute set.
func Multiply(h1, h2 *Histogram) (*Histogram, error) {
	if workflow.AttrsString(h1.Attrs) != workflow.AttrsString(h2.Attrs) {
		return nil, fmt.Errorf("multiply: attribute sets differ: %s vs %s",
			workflow.AttrsString(h1.Attrs), workflow.AttrsString(h2.Attrs))
	}
	out := NewHistogram(h1.Attrs...)
	for k, f1 := range h1.m {
		if f2, ok := h2.m[k]; ok && *f2 != 0 {
			f, err := MulInt64(*f1, *f2)
			if err != nil {
				return nil, fmt.Errorf("multiply: bucket %v: %w", decodeVals(k), err)
			}
			out.inc(k, f)
		}
	}
	return out, nil
}

// Divide implements the paper's H1/H2 operator used by union–division
// (Equation 2): bucket-wise division. Every non-zero bucket of the
// numerator must have a non-zero, evenly dividing denominator bucket; the
// union–division derivation guarantees this when the inputs come from the
// instrumented plan, so a violation indicates a misapplied rule and is
// reported as an error.
func Divide(num, den *Histogram) (*Histogram, error) {
	if workflow.AttrsString(num.Attrs) != workflow.AttrsString(den.Attrs) {
		return nil, fmt.Errorf("divide: attribute sets differ: %s vs %s",
			workflow.AttrsString(num.Attrs), workflow.AttrsString(den.Attrs))
	}
	out := NewHistogram(num.Attrs...)
	for k, f := range num.m {
		var d int64
		if p, ok := den.m[k]; ok {
			d = *p
		}
		if d == 0 {
			return nil, fmt.Errorf("divide: bucket %v has zero denominator", decodeVals(k))
		}
		if *f%d != 0 {
			return nil, fmt.Errorf("divide: bucket %v: %d not divisible by %d", decodeVals(k), *f, d)
		}
		out.inc(k, *f/d)
	}
	return out, nil
}

// DivideProject is Divide for the J5 case where the numerator carries extra
// attributes beyond the denominator's: the denominator bucket is looked up
// on the shared attributes only.
func DivideProject(num, den *Histogram) (*Histogram, error) {
	pos, err := num.attrPos(den.Attrs)
	if err != nil {
		return nil, fmt.Errorf("divide-project: %w", err)
	}
	out := NewHistogram(num.Attrs...)
	var rerr error
	num.Each(func(vals []int64, f int64) {
		if rerr != nil {
			return
		}
		sub := make([]int64, len(pos))
		for i, p := range pos {
			sub[i] = vals[p]
		}
		d := den.Freq(sub...)
		if d == 0 {
			rerr = fmt.Errorf("divide-project: bucket %v has zero denominator", vals)
			return
		}
		if f%d != 0 {
			rerr = fmt.Errorf("divide-project: bucket %v: %d not divisible by %d", vals, f, d)
			return
		}
		rerr = out.Inc(vals, f/d)
	})
	if rerr != nil {
		return nil, rerr
	}
	return out, nil
}

// AddHist returns the bucket-wise sum of two histograms over the same
// attribute set (the ∪ step of union–division).
func AddHist(h1, h2 *Histogram) (*Histogram, error) {
	if workflow.AttrsString(h1.Attrs) != workflow.AttrsString(h2.Attrs) {
		return nil, fmt.Errorf("add: attribute sets differ: %s vs %s",
			workflow.AttrsString(h1.Attrs), workflow.AttrsString(h2.Attrs))
	}
	out := h1.Clone()
	for k, f := range h2.m {
		out.inc(k, *f)
	}
	return out, nil
}
