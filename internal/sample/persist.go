package sample

import (
	"fmt"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/types"
)

// Persistence: a family serializes into one blockfile segment — the
// delta tables in resolution order plus a "family" metadata blob
// carrying what the table data cannot reconstruct (φ, caps, base-table
// row count, stratum and tail counts). The segment is the §3 offline
// artifact made durable: a restarted engine loads it instead of
// re-running the two-pass stratification, and because sampling is
// seeded-deterministic the loaded family answers bit-identically to
// the one that was built.

// familyMetaKey names the family descriptor blob inside a segment.
const familyMetaKey = "family"

// WriteFamily serializes fam into w (descriptor blob + one table per
// delta). One family per segment: ReadFamily reads the whole segment
// back.
func WriteFamily(w *blockfile.Writer, fam *Family) error {
	var e blockfile.Enc
	e.U32(uint32(fam.Phi.Len()))
	for _, c := range fam.Phi.Columns() {
		e.Str(c)
	}
	e.U32(uint32(len(fam.Caps)))
	for _, k := range fam.Caps {
		e.I64(k)
	}
	e.I64(fam.baseRows)
	e.I64(fam.numStrata)
	e.I64(fam.tailCount)
	e.U32(uint32(len(fam.Deltas)))
	w.PutMeta(familyMetaKey, e.Bytes())
	for _, d := range fam.Deltas {
		if err := w.AddTable(d); err != nil {
			return err
		}
	}
	return nil
}

// ReadFamily reconstructs the family stored in seg. Structural
// invariants are validated (delta count vs caps, shared schema), but
// statistical validity is the caller's concern: the engine only loads
// a family segment whose build signature matches what it would build.
// Each delta's zones are derived on up to workers goroutines.
func ReadFamily(seg *blockfile.Segment, workers int) (*Family, error) {
	blob, ok := seg.Meta(familyMetaKey)
	if !ok {
		return nil, fmt.Errorf("sample: segment has no %q descriptor", familyMetaKey)
	}
	d := blockfile.NewDec(blob)
	ncols := d.Count(1)
	cols := make([]string, ncols)
	for i := range cols {
		cols[i] = d.Str()
	}
	ncaps := d.Count(8)
	caps := make([]int64, ncaps)
	for i := range caps {
		caps[i] = d.I64()
	}
	fam := &Family{
		Phi:  types.NewColumnSet(cols...),
		Caps: caps,
	}
	fam.baseRows = d.I64()
	fam.numStrata = d.I64()
	fam.tailCount = d.I64()
	ndeltas := int(d.U32())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sample: family descriptor: %w", err)
	}
	if ncaps == 0 || ndeltas != ncaps {
		return nil, fmt.Errorf("sample: descriptor has %d deltas for %d caps", ndeltas, ncaps)
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] < caps[i-1] {
			return nil, fmt.Errorf("sample: persisted caps not ascending: %v", caps)
		}
	}
	if seg.NumTables() != ndeltas {
		return nil, fmt.Errorf("sample: segment holds %d tables, descriptor says %d deltas",
			seg.NumTables(), ndeltas)
	}
	for i := 0; i < ndeltas; i++ {
		t, err := seg.Table(i, workers)
		if err != nil {
			return nil, err
		}
		if fam.schema == nil {
			fam.schema = t.Schema
		} else if t.Schema.String() != fam.schema.String() {
			return nil, fmt.Errorf("sample: delta %d schema %s differs from %s",
				i, t.Schema, fam.schema)
		} else {
			// Deltas share one schema object, as they do when built.
			t.Schema = fam.schema
		}
		fam.Deltas = append(fam.Deltas, t)
	}
	for _, c := range cols {
		if fam.schema.Index(c) < 0 {
			return nil, fmt.Errorf("sample: stratification column %q missing from schema %s", c, fam.schema)
		}
	}
	fam.index()
	return fam, nil
}
