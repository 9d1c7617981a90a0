package types

import (
	"fmt"
	"sort"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names must be unique
// (case-insensitive); duplicates panic since schemas are program constants.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			panic(fmt.Sprintf("types: duplicate column %q", c.Name))
		}
		s.byName[key] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// MustIndex is Index but returns an error for unknown columns.
func (s *Schema) MustIndex(name string) (int, error) {
	if i := s.Index(name); i >= 0 {
		return i, nil
	}
	return -1, fmt.Errorf("unknown column %q", name)
}

// String renders the schema as "(a BIGINT, b STRING)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Kind)
	}
	b.WriteByte(')')
	return b.String()
}

// Row is one record; index i corresponds to schema column i.
type Row []Value

// ColumnSet is a canonicalised set of column names. The canonical form is
// lower-cased, sorted and comma-joined, so it can be used as a map key and
// compared for subset relations. It corresponds to φ in the paper.
type ColumnSet struct {
	cols []string // sorted, lower-case, unique
}

// NewColumnSet canonicalises names into a set.
func NewColumnSet(names ...string) ColumnSet {
	seen := make(map[string]bool, len(names))
	cols := make([]string, 0, len(names))
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		cols = append(cols, n)
	}
	sort.Strings(cols)
	return ColumnSet{cols: cols}
}

// Columns returns the sorted member names (do not mutate).
func (c ColumnSet) Columns() []string { return c.cols }

// Len returns the number of columns in the set.
func (c ColumnSet) Len() int { return len(c.cols) }

// Empty reports whether the set has no columns.
func (c ColumnSet) Empty() bool { return len(c.cols) == 0 }

// Key returns the canonical string form, e.g. "city,os".
func (c ColumnSet) Key() string { return strings.Join(c.cols, ",") }

// String renders the set as "[city os]" to match the paper's figures.
func (c ColumnSet) String() string { return "[" + strings.Join(c.cols, " ") + "]" }

// Contains reports whether name is a member.
func (c ColumnSet) Contains(name string) bool {
	name = strings.ToLower(name)
	i := sort.SearchStrings(c.cols, name)
	return i < len(c.cols) && c.cols[i] == name
}

// SubsetOf reports whether every member of c is in other (c ⊆ other).
func (c ColumnSet) SubsetOf(other ColumnSet) bool {
	if len(c.cols) > len(other.cols) {
		return false
	}
	for _, n := range c.cols {
		if !other.Contains(n) {
			return false
		}
	}
	return true
}

// Union returns c ∪ other.
func (c ColumnSet) Union(other ColumnSet) ColumnSet {
	return NewColumnSet(append(append([]string{}, c.cols...), other.cols...)...)
}

// Equal reports set equality.
func (c ColumnSet) Equal(other ColumnSet) bool {
	if len(c.cols) != len(other.cols) {
		return false
	}
	for i := range c.cols {
		if c.cols[i] != other.cols[i] {
			return false
		}
	}
	return true
}

// Subsets enumerates every non-empty subset of c with at most maxSize
// members. Used by the optimizer's candidate generation (§3.2.2).
func (c ColumnSet) Subsets(maxSize int) []ColumnSet {
	n := len(c.cols)
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	var out []ColumnSet
	// Enumerate bitmasks; n is small (template column sets are ≤ ~6 wide).
	for mask := 1; mask < 1<<uint(n); mask++ {
		if popcount(mask) > maxSize {
			continue
		}
		var sel []string
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				sel = append(sel, c.cols[i])
			}
		}
		out = append(out, NewColumnSet(sel...))
	}
	return out
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// RowKey concatenates the key encodings of the values of cols (given as
// schema indices) in row r. Rows with equal projections share a key.
func RowKey(r Row, idx []int) string {
	if len(idx) == 1 {
		return r[idx[0]].Key()
	}
	var b strings.Builder
	for i, j := range idx {
		if i > 0 {
			b.WriteByte('\x1f')
		}
		b.WriteString(r[j].Key())
	}
	return b.String()
}
