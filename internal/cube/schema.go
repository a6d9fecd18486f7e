// Package cube models the multi-dimensional space of the regression cube
// (paper §2.1): dimensions with concept hierarchies, the m-layer and
// o-layer critical cuboids (§4.2), cells and their ancestor/descendant
// relations, and the cuboid lattice between the two critical layers
// (Figure 6), including popular drilling paths.
//
// Level numbering follows the paper's Example 5: level 0 is "*" (ALL, the
// highest abstraction), level 1 is the coarsest named level (A1), and
// larger indices are finer (A2, A3, …). A cuboid picks one level per
// dimension; the o-layer is coarser-or-equal and the m-layer finer-or-equal
// on every dimension.
package cube

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MaxDims bounds the number of dimensions so cell keys stay comparable
// fixed-size values. The paper's workloads use ≤ 3 standard dimensions.
const MaxDims = 8

// ErrSchema is returned for invalid schema definitions.
var ErrSchema = errors.New("cube: invalid schema")

// ErrMember is returned for out-of-range member references.
var ErrMember = errors.New("cube: invalid member")

// Hierarchy is a concept hierarchy over one dimension: a balanced tree of
// members with Levels() named levels below "*". Members at each level are
// dense integers [0, Cardinality(level)).
type Hierarchy interface {
	// Levels returns the number of levels below the ALL level.
	Levels() int
	// Cardinality returns the number of members at the given level (≥ 1).
	Cardinality(level int) int
	// Parent maps a member at `level` to its parent member at level−1.
	// Parent of any level-1 member is 0 (the single ALL member).
	Parent(level int, member int32) int32
	// MemberName renders a member for display.
	MemberName(level int, member int32) string
}

// Ancestor lifts a member from `from` up to the coarser level `to` by
// iterating Parent. It panics if to > from (cannot descend).
func Ancestor(h Hierarchy, from, to int, member int32) int32 {
	if to > from {
		panic(fmt.Sprintf("cube: Ancestor cannot descend from level %d to %d", from, to))
	}
	for l := from; l > to; l-- {
		member = h.Parent(l, member)
	}
	return member
}

// FanoutHierarchy is the synthetic-benchmark hierarchy: every member at
// every level has exactly Fanout children, so level l has Fanout^l members
// and Parent is integer division — the generator convention of §5
// ("the node fan-out factor (cardinality) is 10").
type FanoutHierarchy struct {
	Name      string
	Fanout    int
	NumLevels int
}

// NewFanoutHierarchy validates fanout ≥ 1 and levels ≥ 1.
func NewFanoutHierarchy(name string, fanout, levels int) (*FanoutHierarchy, error) {
	if fanout < 1 || levels < 1 {
		return nil, fmt.Errorf("%w: fanout %d, levels %d", ErrSchema, fanout, levels)
	}
	return &FanoutHierarchy{Name: name, Fanout: fanout, NumLevels: levels}, nil
}

// Levels implements Hierarchy.
func (h *FanoutHierarchy) Levels() int { return h.NumLevels }

// Cardinality implements Hierarchy: Fanout^level.
func (h *FanoutHierarchy) Cardinality(level int) int {
	if level <= 0 {
		return 1
	}
	c := 1
	for i := 0; i < level; i++ {
		c *= h.Fanout
	}
	return c
}

// Parent implements Hierarchy by integer division.
func (h *FanoutHierarchy) Parent(level int, member int32) int32 {
	if level <= 1 {
		return 0
	}
	return member / int32(h.Fanout)
}

// MemberName implements Hierarchy: "<name>.L<level>.<member>".
func (h *FanoutHierarchy) MemberName(level int, member int32) string {
	if level == 0 {
		return "*"
	}
	var buf [32]byte
	return string(h.AppendMemberName(buf[:0], level, member))
}

// AppendMemberName appends MemberName's rendering to dst.
func (h *FanoutHierarchy) AppendMemberName(dst []byte, level int, member int32) []byte {
	if level == 0 {
		return append(dst, '*')
	}
	dst = append(dst, h.Name...)
	dst = append(dst, ".L"...)
	dst = strconv.AppendInt(dst, int64(level), 10)
	dst = append(dst, '.')
	return strconv.AppendInt(dst, int64(member), 10)
}

// NamedHierarchy is an explicitly enumerated hierarchy for real-world
// schemas (examples use it for cities, user groups, interfaces, …).
// Build it level by level with AddLevel.
type NamedHierarchy struct {
	name    string
	levels  [][]string // names per level (level 1 at index 0)
	parents [][]int32  // parent member per member, per level (level 2 at index 0)
	index   []map[string]int32
}

// NewNamedHierarchy returns an empty named hierarchy.
func NewNamedHierarchy(name string) *NamedHierarchy {
	return &NamedHierarchy{name: name}
}

// AddLevel appends the next finer level. names lists the new members;
// parents[i] is the member index at the previous level that names[i] rolls
// up to (must be empty for the first level — all its members' parent is *).
func (h *NamedHierarchy) AddLevel(names []string, parents []int32) error {
	if len(names) == 0 {
		return fmt.Errorf("%w: empty level", ErrSchema)
	}
	if len(h.levels) == 0 {
		if parents != nil {
			return fmt.Errorf("%w: first level must not declare parents", ErrSchema)
		}
	} else {
		if len(parents) != len(names) {
			return fmt.Errorf("%w: %d names but %d parents", ErrSchema, len(names), len(parents))
		}
		prev := len(h.levels[len(h.levels)-1])
		for i, p := range parents {
			if p < 0 || int(p) >= prev {
				return fmt.Errorf("%w: member %q parent %d out of range [0,%d)", ErrSchema, names[i], p, prev)
			}
		}
		cp := make([]int32, len(parents))
		copy(cp, parents)
		h.parents = append(h.parents, cp)
	}
	level := make([]string, len(names))
	copy(level, names)
	h.levels = append(h.levels, level)
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			return fmt.Errorf("%w: duplicate member %q", ErrSchema, n)
		}
		idx[n] = int32(i)
	}
	h.index = append(h.index, idx)
	return nil
}

// Levels implements Hierarchy.
func (h *NamedHierarchy) Levels() int { return len(h.levels) }

// Cardinality implements Hierarchy.
func (h *NamedHierarchy) Cardinality(level int) int {
	if level <= 0 {
		return 1
	}
	return len(h.levels[level-1])
}

// Parent implements Hierarchy.
func (h *NamedHierarchy) Parent(level int, member int32) int32 {
	if level <= 1 {
		return 0
	}
	return h.parents[level-2][member]
}

// MemberName implements Hierarchy.
func (h *NamedHierarchy) MemberName(level int, member int32) string {
	if level == 0 {
		return "*"
	}
	return h.levels[level-1][member]
}

// Lookup returns the member index of name at the given level.
func (h *NamedHierarchy) Lookup(level int, name string) (int32, error) {
	if level < 1 || level > len(h.levels) {
		return 0, fmt.Errorf("%w: level %d", ErrMember, level)
	}
	m, ok := h.index[level-1][name]
	if !ok {
		return 0, fmt.Errorf("%w: %q at level %d", ErrMember, name, level)
	}
	return m, nil
}

// Dimension binds a hierarchy to the critical-layer levels chosen for it:
// MLevel (the m-layer, finest analyzed) and OLevel (the o-layer, coarsest
// observed; may be 0 = "*", as dimension B in Example 5).
type Dimension struct {
	Name      string
	Hierarchy Hierarchy
	MLevel    int
	OLevel    int
}

// Schema is the full multi-dimensional shape of a regression cube.
type Schema struct {
	Dims []Dimension
}

// NewSchema validates dimensions and critical-layer levels.
func NewSchema(dims ...Dimension) (*Schema, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("%w: no dimensions", ErrSchema)
	}
	if len(dims) > MaxDims {
		return nil, fmt.Errorf("%w: %d dimensions exceed max %d", ErrSchema, len(dims), MaxDims)
	}
	for i, d := range dims {
		if d.Hierarchy == nil {
			return nil, fmt.Errorf("%w: dimension %d (%s) has no hierarchy", ErrSchema, i, d.Name)
		}
		if d.MLevel < 1 || d.MLevel > d.Hierarchy.Levels() {
			return nil, fmt.Errorf("%w: dimension %s m-level %d outside [1,%d]",
				ErrSchema, d.Name, d.MLevel, d.Hierarchy.Levels())
		}
		if d.OLevel < 0 || d.OLevel > d.MLevel {
			return nil, fmt.Errorf("%w: dimension %s o-level %d outside [0,%d]",
				ErrSchema, d.Name, d.OLevel, d.MLevel)
		}
	}
	return &Schema{Dims: dims}, nil
}

// NumDims returns the number of dimensions.
func (s *Schema) NumDims() int { return len(s.Dims) }

// MLayer returns the m-layer cuboid (the base of computation, §4.2).
func (s *Schema) MLayer() Cuboid {
	var c Cuboid
	c.n = uint8(len(s.Dims))
	for i, d := range s.Dims {
		c.levels[i] = uint8(d.MLevel)
	}
	return c
}

// OLayer returns the o-layer cuboid (the observation deck, §4.2).
func (s *Schema) OLayer() Cuboid {
	var c Cuboid
	c.n = uint8(len(s.Dims))
	for i, d := range s.Dims {
		c.levels[i] = uint8(d.OLevel)
	}
	return c
}

// CuboidCount returns the number of cuboids between the m- and o-layers
// inclusive: Π (MLevel−OLevel+1) — "2·3·2 = 12 cuboids" in Example 5.
func (s *Schema) CuboidCount() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.MLevel - d.OLevel + 1
	}
	return n
}

// Describe renders the schema for diagnostics.
func (s *Schema) Describe() string {
	var b strings.Builder
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s[o=L%d,m=L%d]", d.Name, d.OLevel, d.MLevel)
	}
	return b.String()
}
