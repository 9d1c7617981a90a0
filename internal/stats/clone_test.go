package stats

import "slices"

// Clone returns an independent copy of the accumulator (the class list and
// the quantile value buffer are copied, not aliased), so merging into the
// clone leaves the original usable.
func (a *Acc) Clone() *Acc {
	cp := *a
	cp.cs = a.cs.clone()
	if a.vals != nil {
		cp.vals = slices.Clone(a.vals)
	}
	return &cp
}

// clone returns a copy that shares no memory with c.
func (c *classes) clone() classes {
	cp := *c
	if c.more != nil {
		cp.more = slices.Clone(c.more)
	}
	return cp
}
