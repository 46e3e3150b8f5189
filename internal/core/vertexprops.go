package core

// vertexProps is the VertexPropertyArray (Sec. III.B): per-vertex metadata
// indexed by dense id. The engine keeps its own algorithm-specific property
// arrays; the data structure itself tracks the out-degree (needed by the
// hybrid engine's inference box) and a general-purpose value.
type vertexProps struct {
	degree []uint32
	value  []float64
}

func newVertexProps(capacity int) *vertexProps {
	return &vertexProps{
		degree: make([]uint32, 0, capacity),
		value:  make([]float64, 0, capacity),
	}
}

// ensure grows the arrays so dense id d is addressable.
func (vp *vertexProps) ensure(d uint32) {
	for uint32(len(vp.degree)) <= d {
		vp.degree = append(vp.degree, 0)
		vp.value = append(vp.value, 0)
	}
}

// reserve grows the arrays' capacity to n in one step (a bulk-load
// pre-sizing hint; lengths are unchanged).
func (vp *vertexProps) reserve(n int) {
	if n <= cap(vp.degree) {
		return
	}
	d := make([]uint32, len(vp.degree), n)
	copy(d, vp.degree)
	vp.degree = d
	v := make([]float64, len(vp.value), n)
	copy(v, vp.value)
	vp.value = v
}

func (vp *vertexProps) memoryBytes() uint64 {
	return uint64(cap(vp.degree))*4 + uint64(cap(vp.value))*8
}
