package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"blinkdb/internal/types"
)

// TestStrataMatchRowKey holds Strata to RowKey over chunks encoded every
// way — dictionaries that differ from chunk to chunk, NULLs, RLE runs,
// mixed kinds, Int(1) beside Bool(true), NaNs of two payloads, ±0 — for
// one, two and three columns, whole chunks and windows: rows share an id
// exactly when they share a RowKey, ids are numbered in order of first
// appearance, and Key gives each id's RowKey back. Count tallies the ids.
func TestStrataMatchRowKey(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	rng := rand.New(rand.NewSource(9))
	value := func(c, i int) types.Value {
		switch c {
		case 0: // strings with NULLs, shuffled per chunk
			if rng.Intn(6) == 0 {
				return types.Null()
			}
			return types.Str(fmt.Sprintf("s%d", rng.Intn(9)))
		case 1: // runs (RLE), with NULL runs
			if i/20%4 == 3 {
				return types.Null()
			}
			return types.Int(int64(i / 20 % 3))
		case 2: // mixed: ints, bools and floats whose keys meet
			switch rng.Intn(4) {
			case 0:
				return types.Bool(rng.Intn(2) == 0)
			case 1:
				return types.Float([]float64{math.NaN(), nan2, 0, math.Copysign(0, -1)}[rng.Intn(4)])
			}
			return types.Int(int64(rng.Intn(3)))
		case 3: // floats with NULLs
			if rng.Intn(5) == 0 {
				return types.Null()
			}
			return types.Float(float64(rng.Intn(4)) / 2)
		default: // bools
			return types.Bool(rng.Intn(3) == 0)
		}
	}
	const width = 5
	var chunks []*Data
	for k := 0; k < 6; k++ {
		rows := make([]types.Row, 100+rng.Intn(400))
		for i := range rows {
			rows[i] = make(types.Row, width)
			for c := range rows[i] {
				rows[i][c] = value(c, i)
			}
		}
		b := NewBuilder(width)
		for _, r := range rows {
			b.Append(r, 1, 0)
		}
		chunks = append(chunks, b.Finish())
	}
	for _, idx := range [][]int{{}, {0}, {1}, {2}, {3}, {4}, {0, 1}, {2, 3}, {1, 4}, {0, 2, 3}, {4, 1, 0}} {
		for _, window := range []bool{false, true} {
			s := NewStrata(idx)
			byKey := map[string]uint32{}
			var counts, want []int64
			for _, d := range chunks {
				lo, hi := 0, d.N
				if window {
					lo, hi = rng.Intn(d.N/2), d.N/2+rng.Intn(d.N/2)
				}
				ids := s.IDs(d, lo, hi, []uint32{7}) // appends after what out holds
				counts = s.Count(d, lo, hi, counts)
				if len(ids) != 1+hi-lo || ids[0] != 7 {
					t.Fatalf("idx %v: IDs returned %d ids after the 1 given", idx, len(ids)-1)
				}
				for i, id := range ids[1:] {
					key := types.RowKey(d.Row(lo+i), idx)
					prev, seen := byKey[key]
					switch {
					case !seen && int(id) != len(byKey):
						t.Fatalf("idx %v: new key %q numbered %d, want %d", idx, key, id, len(byKey))
					case seen && id != prev:
						t.Fatalf("idx %v: key %q numbered %d, earlier %d", idx, key, id, prev)
					}
					if !seen {
						byKey[key] = id
						want = append(want, 0)
					}
					want[id] += 2 // IDs and Count each saw the row
				}
			}
			if s.Len() != len(byKey) {
				t.Fatalf("idx %v: Len %d, %d distinct keys", idx, s.Len(), len(byKey))
			}
			for key, id := range byKey {
				if got := s.Key(id); got != key {
					t.Fatalf("idx %v: Key(%d) = %q, want %q", idx, id, got, key)
				}
				if 2*counts[id] != want[id] {
					t.Fatalf("idx %v: Count gave key %q %d rows, want %d", idx, key, counts[id], want[id]/2)
				}
			}
		}
	}
}
