package elp

import (
	"fmt"
	"hash/crc32"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/catalog"
	"blinkdb/internal/exec"
	"blinkdb/internal/sample"
	"blinkdb/internal/stats"
	"blinkdb/internal/types"
)

// Warmup persistence: the runtime's two reuse layers serialize to a
// binary blob (blockfile.Enc wire format — bit-exact floats, so NaN and
// ±0 in estimates survive where JSON would not) and replay at boot.
//
// What is persisted per plan-cache template: the template key, fact
// table, epoch deps, the prepare-time parameter vector, and each
// disjunct's family choice (by φ), Decision skeleton, probe-chain
// endpoint (level, probe result, probe latency). What is NOT: the
// compiled query/plan (prepQ/prepPlan restore as nil — execute
// recompiles per query, its pointer-identity fast path simply never
// fires), the probe's chain (a read that would have continued it scans
// its view from the start instead: the same answer, bit for bit), and
// join templates (their join-expanded schema and specs need the query
// object to recompile, so they re-prepare on first use).
//
// Per result-cache entry: the full key, the canonical Response (result
// groups, decisions, simulated latency), the plan-cache note and epoch
// deps. An answer carries no age: like a live entry it is servable
// exactly while its deps' epochs hold.
//
// Import is strict-then-selective: a structurally corrupt blob is
// rejected whole (nothing applied), while well-formed entries are
// applied one by one, silently skipping any that fail validation
// against the live catalog — unknown table, missing family, level out
// of range, epoch mismatch. Families are resurrected by reference (φ
// against the restored catalog entry), never by value, so a warmup blob
// can only ever point at samples the engine actually loaded.

// warmupVersion versions the elp warmup blob: its layout, and the
// arithmetic behind the estimates it carries. Versions 2 and 3 have version
// 1's layout. Version 2 marks answers and probe WeightedMatched computed
// from per-class moments (stats.Acc), whose last bits differ from version
// 1's per-row weighted sums; version 3 marks those moments kept per stratum
// frequency and in four lanes, and scan ranges cut at every sample delta,
// whose last bits differ again. Replaying an older blob's answers beside
// freshly computed ones would break restart bit-identity, so it is refused
// and both caches warm lazily. Version 4 drops the expiry deadline that
// versions 1–3 stored in every result entry.
const warmupVersion = 4

// warmupCRC is the blob's integrity check (CRC32-Castagnoli, matching
// the segment format). The segment layer already checksums the meta
// section carrying the blob; this inner checksum makes the blob
// self-protecting when stored any other way — warmup data feeds answers
// directly, so a flipped payload bit must fail loudly, not serve a
// wrong estimate.
var warmupCRC = crc32.MakeTable(crc32.Castagnoli)

// ExportWarmup serializes the runtime's warm state — prepared templates
// and cached results — for replay via ImportWarmup after a restart.
// Safe to call concurrently with queries; it sees a snapshot-quality
// view of both caches.
func (rt *Runtime) ExportWarmup() []byte {
	var e blockfile.Enc

	var plans [][]byte
	rt.cache.Range(func(_ string, pq *prepared) bool {
		if b, ok := encodePlan(pq); ok {
			plans = append(plans, b)
		}
		return true
	})
	e.U32(uint32(len(plans)))
	for _, b := range plans {
		e.U32(uint32(len(b)))
		e.Raw(b)
	}

	var results [][]byte
	rt.results.Range(func(rkey string, ent *resultEntry) bool {
		results = append(results, encodeResultEntry(rkey, ent))
		return true
	})
	e.U32(uint32(len(results)))
	for _, b := range results {
		e.U32(uint32(len(b)))
		e.Raw(b)
	}

	payload := e.Bytes()
	var out blockfile.Enc
	out.U32(warmupVersion)
	out.U32(crc32.Checksum(payload, warmupCRC))
	out.Raw(payload)
	return out.Bytes()
}

// ImportWarmup replays a warmup blob produced by ExportWarmup into the
// plan and result caches, returning how many templates and results were
// restored. Entries that no longer validate — epoch-stale deps, missing
// families — are skipped individually; a structurally corrupt blob returns
// an error with nothing applied.
//
// allow is the caller's content gate: an entry is restored only when
// allow accepts every table it depends on. Catalog epochs restart from
// scratch each process, so a snapshot epoch can numerically alias a
// freshly rebuilt epoch over DIFFERENT content — epoch equality alone
// is not proof of sameness across a restart. The engine passes a
// fingerprint check; nil allows every table (same-process use, where
// epoch monotonicity does hold).
//
// Call it AFTER the catalog holds the tables and families the snapshot
// was taken against (and after any RestoreEpoch), or every entry will
// skip as stale.
func (rt *Runtime) ImportWarmup(blob []byte, allow func(table string) bool) (plans, results int, err error) {
	d := blockfile.NewDec(blob)
	if v := d.U32(); d.Err() != nil || v != warmupVersion {
		return 0, 0, fmt.Errorf("elp: warmup blob version %d (want %d)", v, warmupVersion)
	}
	sum := d.U32()
	payload := d.Raw(d.Remaining())
	if d.Err() != nil || crc32.Checksum(payload, warmupCRC) != sum {
		return 0, 0, fmt.Errorf("elp: warmup blob checksum mismatch")
	}
	d = blockfile.NewDec(payload)
	planBlobs, err := decodeBlobList(d)
	if err != nil {
		return 0, 0, fmt.Errorf("elp: warmup plans: %w", err)
	}
	resultBlobs, err := decodeBlobList(d)
	if err != nil {
		return 0, 0, fmt.Errorf("elp: warmup results: %w", err)
	}

	// Stage everything before applying anything: a blob that decodes
	// halfway applies nothing.
	staged := make([]*prepared, 0, len(planBlobs))
	for _, b := range planBlobs {
		pq, err := rt.decodePlan(b)
		if err != nil {
			return 0, 0, fmt.Errorf("elp: warmup plan entry: %w", err)
		}
		staged = append(staged, pq) // nil = valid encoding, stale content
	}
	type stagedResult struct {
		rkey string
		ent  *resultEntry
	}
	stagedResults := make([]stagedResult, 0, len(resultBlobs))
	for _, b := range resultBlobs {
		rkey, ent, err := rt.decodeResultEntry(b)
		if err != nil {
			return 0, 0, fmt.Errorf("elp: warmup result entry: %w", err)
		}
		stagedResults = append(stagedResults, stagedResult{rkey, ent})
	}

	allowed := func(deps []tableDep) bool {
		if allow == nil {
			return true
		}
		for _, dep := range deps {
			if !allow(dep.table) {
				return false
			}
		}
		return true
	}
	for _, pq := range staged {
		if pq == nil || !allowed(pq.deps) || !rt.fresh(pq.deps) {
			continue
		}
		rt.cache.Put(pq.key, pq)
		plans++
	}
	for _, sr := range stagedResults {
		if sr.ent == nil || !allowed(sr.ent.deps) || !rt.fresh(sr.ent.deps) {
			continue
		}
		rt.results.Put(sr.rkey, sr.ent)
		results++
	}
	return plans, results, nil
}

// decodeBlobList reads a count-prefixed list of length-prefixed blobs.
func decodeBlobList(d *blockfile.Dec) ([][]byte, error) {
	n := d.Count(4)
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		b := d.Raw(d.Count(0))
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// encodePlan serializes one prepared template. Join templates are not
// persisted (ok=false): rebuilding their join-expanded schema and
// compiled specs requires the original query object.
func encodePlan(pq *prepared) ([]byte, bool) {
	if len(pq.joins) > 0 {
		return nil, false
	}
	var e blockfile.Enc
	e.Str(pq.key)
	e.Str(pq.table)
	encDeps(&e, pq.deps)
	e.U8(b2u(pq.exact))
	encValues(&e, pq.prepParams)
	e.U32(uint32(len(pq.disjuncts)))
	for _, pd := range pq.disjuncts {
		if pd.fam == nil {
			e.U8(0)
		} else {
			e.U8(1)
			e.Str(pd.fam.Phi.Key())
		}
		encDecision(&e, pd.famDec)
		if pd.fam != nil {
			e.U32(uint32(pd.pv.Level))
			if pd.probe == nil {
				e.U8(0)
			} else {
				e.U8(1)
				encResult(&e, pd.probe)
			}
			e.F64(pd.probeLat)
		}
	}
	return e.Bytes(), true
}

// decodePlan reconstructs a prepared template against the live catalog.
// It returns (nil, nil) for well-formed entries whose referenced state
// no longer exists — those skip silently; only malformed bytes error.
func (rt *Runtime) decodePlan(blob []byte) (*prepared, error) {
	d := blockfile.NewDec(blob)
	pq := &prepared{
		key:   d.Str(),
		table: d.Str(),
		deps:  decDeps(d),
		exact: d.U8() != 0,
	}
	pq.prepParams = decValues(d)
	ndis := d.Count(1)
	if err := d.Err(); err != nil {
		return nil, err
	}

	entry, resolve := rt.families(pq.table)
	stale := entry == nil
	for i := 0; i < ndis; i++ {
		pd := &prepDisjunct{}
		var famKey string
		hasFam := d.U8() != 0
		if hasFam {
			famKey = d.Str()
		}
		dec, decStale := decDecision(d, resolve)
		pd.famDec = dec
		stale = stale || decStale
		if hasFam {
			level := int(d.U32())
			if d.U8() != 0 {
				pd.probe = decResult(d)
			}
			pd.probeLat = d.F64()
			if fam := resolve(famKey); fam != nil && level < fam.Resolutions() {
				pd.fam = fam
				pd.pv = fam.View(level)
			} else {
				stale = true
			}
		}
		pq.disjuncts = append(pq.disjuncts, pd)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	if stale {
		return nil, nil
	}
	pq.entry = entry
	pq.schema = entry.Table.Schema
	return pq, nil
}

// encodeResultEntry serializes one cached answer with its key, note and
// deps.
func encodeResultEntry(rkey string, ent *resultEntry) []byte {
	var e blockfile.Enc
	e.Str(rkey)
	e.Str(ent.note)
	encDeps(&e, ent.deps)
	encResponse(&e, ent.resp)
	return e.Bytes()
}

// decodeResultEntry reconstructs one cached answer. Like decodePlan,
// stale-but-well-formed entries return a nil entry and no error.
func (rt *Runtime) decodeResultEntry(blob []byte) (string, *resultEntry, error) {
	d := blockfile.NewDec(blob)
	rkey := d.Str()
	note := d.Str()
	deps := decDeps(d)

	stale := len(deps) == 0
	resolve := func(string) *sample.Family { return nil }
	if !stale {
		var entry *catalog.Entry
		entry, resolve = rt.families(deps[0].table)
		stale = entry == nil
	}
	resp, respStale := decResponse(d, resolve)
	if err := d.Err(); err != nil {
		return "", nil, err
	}
	if d.Remaining() != 0 {
		return "", nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	if stale || respStale {
		return rkey, nil, nil
	}
	return rkey, newResultEntry(resp, note, deps), nil
}

// families returns table's live catalog entry (nil when the table is
// gone) and a resolver of φ keys to its families (nil when none matches):
// how a warmup blob's family references come back to life.
func (rt *Runtime) families(table string) (*catalog.Entry, func(string) *sample.Family) {
	entry, _ := rt.cat.Lookup(table)
	return entry, func(phiKey string) *sample.Family {
		if entry == nil {
			return nil
		}
		for _, f := range entry.Families {
			if f.Phi.Key() == phiKey {
				return f
			}
		}
		return nil
	}
}

// --- field codecs -----------------------------------------------------

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func encDeps(e *blockfile.Enc, deps []tableDep) {
	e.U32(uint32(len(deps)))
	for _, dep := range deps {
		e.Str(dep.table)
		e.U64(dep.epoch)
	}
}

func decDeps(d *blockfile.Dec) []tableDep {
	n := d.Count(12)
	if n == 0 {
		return nil
	}
	out := make([]tableDep, n)
	for i := range out {
		out[i] = tableDep{table: d.Str(), epoch: d.U64()}
	}
	return out
}

// encValues writes a value list preserving nil-vs-empty (0 = nil,
// n+1 = list of n) — restored state must stay DeepEqual to live state.
func encValues(e *blockfile.Enc, vs []types.Value) {
	if vs == nil {
		e.U32(0)
		return
	}
	e.U32(uint32(len(vs)) + 1)
	for _, v := range vs {
		e.Val(v)
	}
}

func decValues(d *blockfile.Dec) []types.Value {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]types.Value, n-1)
	for i := range out {
		out[i] = d.Val()
	}
	return out
}

func encEstimates(e *blockfile.Enc, es []stats.Estimate) {
	if es == nil {
		e.U32(0)
		return
	}
	e.U32(uint32(len(es)) + 1)
	for _, est := range es {
		e.F64(est.Point)
		e.F64(est.StdErr)
		e.F64(est.Confidence)
		e.F64(est.Bound)
		e.I64(est.Rows)
		e.F64(est.EffRows)
		e.U8(b2u(est.Exact))
	}
}

func decEstimates(d *blockfile.Dec) []stats.Estimate {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	out := make([]stats.Estimate, n-1)
	for i := range out {
		out[i] = stats.Estimate{
			Point:      d.F64(),
			StdErr:     d.F64(),
			Confidence: d.F64(),
			Bound:      d.F64(),
			Rows:       d.I64(),
			EffRows:    d.F64(),
			Exact:      d.U8() != 0,
		}
	}
	return out
}

func encResult(e *blockfile.Enc, r *exec.Result) {
	if r.Groups == nil {
		e.U32(0)
	} else {
		e.U32(uint32(len(r.Groups)) + 1)
		for _, g := range r.Groups {
			encValues(e, g.Key)
			encEstimates(e, g.Estimates)
		}
	}
	e.I64(r.RowsScanned)
	e.I64(r.RowsMatched)
	e.F64(r.WeightedMatched)
	e.I64(r.MaxMatchedStratumFreq)
	e.I64(r.BytesScanned)
	e.F64(r.Confidence)
}

func decResult(d *blockfile.Dec) *exec.Result {
	r := &exec.Result{}
	n := d.Count(8)
	if n > 0 {
		r.Groups = make([]exec.Group, n-1)
		for i := range r.Groups {
			r.Groups[i] = exec.Group{Key: decValues(d), Estimates: decEstimates(d)}
		}
	}
	r.RowsScanned = d.I64()
	r.RowsMatched = d.I64()
	r.WeightedMatched = d.F64()
	r.MaxMatchedStratumFreq = d.I64()
	r.BytesScanned = d.I64()
	r.Confidence = d.F64()
	return r
}

// encDecision serializes a Decision; family references go by φ key.
func encDecision(e *blockfile.Enc, dec Decision) {
	if dec.View.Family == nil {
		e.U8(0)
	} else {
		e.U8(1)
		e.Str(dec.View.Family.Phi.Key())
		e.U32(uint32(dec.View.Level))
	}
	e.U8(b2u(dec.UsedBase))
	if dec.Probed == nil {
		e.U32(0)
	} else {
		e.U32(uint32(len(dec.Probed)) + 1)
		for _, p := range dec.Probed {
			if p.Family == nil {
				e.U8(0)
			} else {
				e.U8(1)
				e.Str(p.Family.Phi.Key())
			}
			e.F64(p.Selectivity)
			e.I64(p.Matched)
		}
	}
	e.F64(dec.ProbeLatency)
	e.F64(dec.ReadLatency)
	e.F64(dec.RequiredRows)
	e.F64(dec.PredictedBound)
	e.Str(dec.Reason)
}

// decDecision reconstructs a Decision, resolving family references via
// resolve. stale reports a reference that no longer resolves (or a view
// level out of range) — the decode itself still consumed the bytes.
func decDecision(d *blockfile.Dec, resolve func(string) *sample.Family) (dec Decision, stale bool) {
	if d.U8() != 0 {
		phiKey := d.Str()
		level := int(d.U32())
		if fam := resolve(phiKey); fam != nil && level < fam.Resolutions() {
			dec.View = fam.View(level)
		} else {
			stale = true
		}
	}
	dec.UsedBase = d.U8() != 0
	n := d.Count(10)
	if n > 0 {
		dec.Probed = make([]ProbeInfo, n-1)
		for i := range dec.Probed {
			var fam *sample.Family
			if d.U8() != 0 {
				if fam = resolve(d.Str()); fam == nil {
					stale = true
				}
			}
			dec.Probed[i] = ProbeInfo{Family: fam, Selectivity: d.F64(), Matched: d.I64()}
		}
	}
	dec.ProbeLatency = d.F64()
	dec.ReadLatency = d.F64()
	dec.RequiredRows = d.F64()
	dec.PredictedBound = d.F64()
	dec.Reason = d.Str()
	return dec, stale
}

func encResponse(e *blockfile.Enc, resp *Response) {
	if resp.Result == nil {
		e.U8(0)
	} else {
		e.U8(1)
		encResult(e, resp.Result)
	}
	if resp.Decisions == nil {
		e.U32(0)
	} else {
		e.U32(uint32(len(resp.Decisions)) + 1)
		for _, dec := range resp.Decisions {
			encDecision(e, dec)
		}
	}
	e.F64(resp.SimLatency)
	e.F64(resp.Confidence)
	e.Str(resp.Cache)
	e.Str(resp.ResultCache)
}

func decResponse(d *blockfile.Dec, resolve func(string) *sample.Family) (*Response, bool) {
	resp := &Response{}
	stale := false
	if d.U8() != 0 {
		resp.Result = decResult(d)
	}
	n := d.Count(10)
	if n > 0 {
		resp.Decisions = make([]Decision, n-1)
		for i := range resp.Decisions {
			var s bool
			resp.Decisions[i], s = decDecision(d, resolve)
			stale = stale || s
		}
	}
	resp.SimLatency = d.F64()
	resp.Confidence = d.F64()
	resp.Cache = d.Str()
	resp.ResultCache = d.Str()
	return resp, stale
}
