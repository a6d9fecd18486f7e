package cube

import (
	"fmt"
	"strconv"
)

// Cuboid identifies one group-by between the o- and m-layers: the level
// chosen per dimension (paper Figure 6 nodes, e.g. (A1, B2, C1)). It is a
// comparable value usable as a map key.
type Cuboid struct {
	n      uint8
	levels [MaxDims]uint8
}

// NewCuboid builds a cuboid from per-dimension levels.
func NewCuboid(levels ...int) (Cuboid, error) {
	if len(levels) == 0 || len(levels) > MaxDims {
		return Cuboid{}, fmt.Errorf("%w: %d dimensions", ErrSchema, len(levels))
	}
	var c Cuboid
	c.n = uint8(len(levels))
	for i, l := range levels {
		if l < 0 || l > 255 {
			return Cuboid{}, fmt.Errorf("%w: level %d", ErrSchema, l)
		}
		c.levels[i] = uint8(l)
	}
	return c, nil
}

// MustCuboid is NewCuboid for literals; it panics on error.
func MustCuboid(levels ...int) Cuboid {
	c, err := NewCuboid(levels...)
	if err != nil {
		panic(err)
	}
	return c
}

// NumDims returns the number of dimensions.
func (c Cuboid) NumDims() int { return int(c.n) }

// Level returns the level chosen for dimension d.
func (c Cuboid) Level(d int) int { return int(c.levels[d]) }

// WithLevel returns a copy with dimension d set to the given level.
func (c Cuboid) WithLevel(d, level int) Cuboid {
	out := c
	out.levels[d] = uint8(level)
	return out
}

// DominatedBy reports whether every level of c is coarser-or-equal to the
// corresponding level of finer — i.e. finer's cells can be rolled up to
// c's cells ("c is an ancestor cuboid of finer").
func (c Cuboid) DominatedBy(finer Cuboid) bool {
	if c.n != finer.n {
		return false
	}
	for i := 0; i < int(c.n); i++ {
		if c.levels[i] > finer.levels[i] {
			return false
		}
	}
	return true
}

// Equal reports cuboid identity.
func (c Cuboid) Equal(o Cuboid) bool { return c == o }

// Describe renders the cuboid against a schema, e.g. "(A1, *, C2)".
func (c Cuboid) Describe(s *Schema) string {
	var buf [64]byte
	return string(c.AppendDescribe(buf[:0], s))
}

// AppendDescribe appends Describe's rendering to dst — the allocation-free
// form for callers that format many lines into one reused buffer.
func (c Cuboid) AppendDescribe(dst []byte, s *Schema) []byte {
	dst = append(dst, '(')
	for i := 0; i < int(c.n); i++ {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		if c.levels[i] == 0 {
			dst = append(dst, '*')
		} else {
			dst = append(dst, s.Dims[i].Name...)
			dst = strconv.AppendUint(dst, uint64(c.levels[i]), 10)
		}
	}
	return append(dst, ')')
}

// CellKey identifies one cell: its cuboid plus the member chosen per
// dimension at that cuboid's levels. Comparable, usable as a map key.
type CellKey struct {
	Cuboid  Cuboid
	Members [MaxDims]int32
}

// NewCellKey assembles a cell key; members beyond the cuboid's dimension
// count are zeroed so equal cells compare equal.
func NewCellKey(c Cuboid, members ...int32) CellKey {
	var k CellKey
	k.Cuboid = c
	for i := 0; i < int(c.n) && i < len(members); i++ {
		k.Members[i] = members[i]
	}
	return k
}

// Member returns the member for dimension d.
func (k CellKey) Member(d int) int32 { return k.Members[d] }

// Describe renders the cell against a schema, e.g. "(west, *, core-1)".
func (k CellKey) Describe(s *Schema) string {
	// Heap-allocated on purpose: the buffer escapes through the hierarchy
	// interface call, so a stack array would only add a copy.
	return string(k.AppendDescribe(make([]byte, 0, 64), s))
}

// memberNameAppender is the optional Hierarchy extension AppendDescribe
// uses to render a member without an intermediate string.
type memberNameAppender interface {
	AppendMemberName(dst []byte, level int, member int32) []byte
}

// AppendDescribe appends Describe's rendering to dst. It allocates nothing
// when dst has room and every hierarchy either names members from stored
// strings (NamedHierarchy) or implements AppendMemberName (FanoutHierarchy).
func (k CellKey) AppendDescribe(dst []byte, s *Schema) []byte {
	dst = append(dst, '(')
	for i := 0; i < k.Cuboid.NumDims(); i++ {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		h := s.Dims[i].Hierarchy
		if a, ok := h.(memberNameAppender); ok {
			dst = a.AppendMemberName(dst, k.Cuboid.Level(i), k.Members[i])
		} else {
			dst = append(dst, h.MemberName(k.Cuboid.Level(i), k.Members[i])...)
		}
	}
	return append(dst, ')')
}

// CompareKeys orders cell keys totally: by dimension count, then cuboid
// levels, then members, all lexicographically. It anchors every
// deterministic ordering in the system — sorted alert output, canonical
// float-aggregation order — so results are reproducible across runs and
// engine shardings.
func CompareKeys(a, b CellKey) int {
	if a.Cuboid.n != b.Cuboid.n {
		if a.Cuboid.n < b.Cuboid.n {
			return -1
		}
		return 1
	}
	for d := 0; d < int(a.Cuboid.n); d++ {
		if a.Cuboid.levels[d] != b.Cuboid.levels[d] {
			if a.Cuboid.levels[d] < b.Cuboid.levels[d] {
				return -1
			}
			return 1
		}
	}
	for d := 0; d < int(a.Cuboid.n); d++ {
		if a.Members[d] != b.Members[d] {
			if a.Members[d] < b.Members[d] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// RollUpKey lifts a cell key from its cuboid to the coarser cuboid `to`
// (which must be dominated by the key's cuboid) by walking each
// dimension's hierarchy upward.
func RollUpKey(s *Schema, k CellKey, to Cuboid) (CellKey, error) {
	if !to.DominatedBy(k.Cuboid) {
		return CellKey{}, fmt.Errorf("%w: cuboid %v does not dominate %v", ErrSchema, k.Cuboid, to)
	}
	out := CellKey{Cuboid: to}
	for d := 0; d < k.Cuboid.NumDims(); d++ {
		out.Members[d] = Ancestor(s.Dims[d].Hierarchy, k.Cuboid.Level(d), to.Level(d), k.Members[d])
	}
	return out, nil
}

// IsDescendantCell reports whether cell k rolls up to ancestor cell a
// (k's cuboid must dominate a's; otherwise false).
func IsDescendantCell(s *Schema, k CellKey, a CellKey) bool {
	if !a.Cuboid.DominatedBy(k.Cuboid) {
		return false
	}
	up, err := RollUpKey(s, k, a.Cuboid)
	if err != nil {
		return false
	}
	return up == a
}
