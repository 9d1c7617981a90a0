package types

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() should be null")
	}
	if got := Int(42).I; got != 42 {
		t.Errorf("Int(42).I = %d", got)
	}
	if got := Int(42).AsFloat(); got != 42.0 {
		t.Errorf("Int(42).AsFloat() = %g", got)
	}
	if got := Float(2.5).AsFloat(); got != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", got)
	}
	if got := Str("x").String(); got != "x" {
		t.Errorf("Str(x).String() = %q", got)
	}
	if Bool(true).I != 1 || Bool(false).I != 0 {
		t.Error("Bool round-trip failed")
	}
	if Null().I != 0 || Null().AsFloat() != 0 {
		t.Error("NULL should convert to zero values")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{Str("hi"), "hi"},
		{Bool(true), "true"},
		{Bool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(3), Int(3), 0},
		{Int(1), Float(1.5), -1},
		{Float(1.5), Int(1), 1},
		{Float(2.0), Int(2), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("a"), 1},
		{Str("a"), Str("a"), 0},
		{Int(999), Str("0"), -1}, // numeric sorts before string
		{Bool(false), Bool(true), -1},
		{Bool(true), Int(1), 0}, // bools compare numerically
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareLargeInts(t *testing.T) {
	// Values that would collide after float64 rounding must still order.
	a := Int(1 << 60)
	b := Int(1<<60 + 1)
	if Compare(a, b) != -1 || Compare(b, a) != 1 {
		t.Error("large ints must compare exactly")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyDistinctness(t *testing.T) {
	f := func(a, b int64) bool {
		if a == b {
			return Int(a).Key() == Int(b).Key()
		}
		return Int(a).Key() != Int(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		if a == b {
			return Str(a).Key() == Str(b).Key()
		}
		return Str(a).Key() != Str(b).Key()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	if Int(0).Key() == Str("0").Key() {
		t.Error("int and string keys must not collide")
	}
	if Null().Key() == Str("").Key() {
		t.Error("null and empty string keys must not collide")
	}
}

func TestFloatKeyDistinctness(t *testing.T) {
	f := func(a, b float64) bool {
		if a == b {
			return Float(a).Key() == Float(b).Key()
		}
		return Float(a).Key() != Float(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindNull: "NULL", KindInt: "BIGINT", KindFloat: "DOUBLE",
		KindString: "STRING", KindBool: "BOOLEAN",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), w)
		}
	}
}
