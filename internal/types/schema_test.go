package types

import (
	"reflect"
	"testing"
)

func demoSchema() *Schema {
	return NewSchema(
		Column{Name: "City", Kind: KindString},
		Column{Name: "OS", Kind: KindString},
		Column{Name: "SessionTime", Kind: KindFloat},
	)
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	s := demoSchema()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i := s.Index("city"); i != 0 {
		t.Errorf("Index(city) = %d", i)
	}
	if i := s.Index("SESSIONTIME"); i != 2 {
		t.Errorf("Index(SESSIONTIME) = %d", i)
	}
	if i := s.Index("nope"); i != -1 {
		t.Errorf("Index(nope) = %d", i)
	}
	if _, err := s.MustIndex("nope"); err == nil {
		t.Error("MustIndex should fail for unknown column")
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"City", "OS", "SessionTime"}) {
		t.Errorf("Names() = %v", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate column should panic")
		}
	}()
	NewSchema(Column{Name: "a"}, Column{Name: "A"})
}

func TestSchemaString(t *testing.T) {
	got := demoSchema().String()
	want := "(City STRING, OS STRING, SessionTime DOUBLE)"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestColumnSetCanonical(t *testing.T) {
	a := NewColumnSet("OS", "city", "os", " URL ")
	if a.Key() != "city,os,url" {
		t.Errorf("Key = %q", a.Key())
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	if a.String() != "[city os url]" {
		t.Errorf("String = %q", a.String())
	}
	if !a.Contains("URL") || a.Contains("genre") {
		t.Error("Contains failed")
	}
}

func TestColumnSetSubsetUnionEqual(t *testing.T) {
	a := NewColumnSet("city")
	b := NewColumnSet("city", "os")
	if !a.SubsetOf(b) || b.SubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if !a.SubsetOf(a) {
		t.Error("set must be subset of itself")
	}
	u := a.Union(NewColumnSet("os"))
	if !u.Equal(b) {
		t.Errorf("union = %v", u)
	}
	if NewColumnSet().Empty() != true || b.Empty() {
		t.Error("Empty wrong")
	}
	empty := NewColumnSet()
	if !empty.SubsetOf(a) {
		t.Error("empty set is subset of everything")
	}
}

func TestColumnSetSubsets(t *testing.T) {
	c := NewColumnSet("a", "b", "c")
	all := c.Subsets(0)
	if len(all) != 7 {
		t.Fatalf("3-set has 7 non-empty subsets, got %d", len(all))
	}
	limited := c.Subsets(2)
	if len(limited) != 6 {
		t.Fatalf("subsets ≤2 of 3-set = 6, got %d", len(limited))
	}
	for _, s := range limited {
		if s.Len() > 2 {
			t.Errorf("subset %v exceeds max size", s)
		}
	}
}

func TestRowKey(t *testing.T) {
	r := Row{Str("NY"), Str("Win7"), Float(1.5)}
	k1 := RowKey(r, []int{0})
	k2 := RowKey(r, []int{0, 1})
	if k1 == k2 {
		t.Error("different projections should give different keys")
	}
	r2 := Row{Str("NY"), Str("OSX"), Float(1.5)}
	if RowKey(r, []int{0}) != RowKey(r2, []int{0}) {
		t.Error("same projection values must share key")
	}
	if RowKey(r, []int{0, 1}) == RowKey(r2, []int{0, 1}) {
		t.Error("differing projections must not share key")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].I != 1 {
		t.Error("clone must not alias")
	}
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Clone returns a copy of the row (values are immutable).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
