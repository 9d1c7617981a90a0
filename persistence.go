package blinkdb

// Engine persistence: with Config.DataDir set, the engine makes its
// expensive warm state durable across restarts in three layers, all
// built on internal/blockfile segments (CRC-checksummed, atomically
// replaced, mmap-loaded):
//
//  1. Sample segments. CreateSamples persists every built family to
//     DataDir/samples/<table>/ keyed by a build signature over its
//     inputs (table content stats, templates, budget, seed). A
//     warm boot whose CreateSamples call matches the signature loads
//     the families from disk instead of re-running stratification —
//     and because sampling is seeded-deterministic, the loaded
//     families are the ones a rebuild would produce.
//
//  2. The warmup file. SnapshotWarmup writes DataDir/warmup.seg: the
//     SQL of the queries behind the ELP runtime's fresh plan- and
//     result-cache entries, grouped by the prepared state each answer
//     ran under, and each template's cost estimate (the telemetry
//     registry's EWMA of observed wall seconds, which admission prices
//     by). RestoreWarmup replays those queries after the samples are
//     loaded — every restored entry is computed after the restart,
//     against the catalog actually loaded, so none can be stale — and
//     seeds the estimates, so a restarted server prices its first
//     admissions from what its predecessor learned.
//
//  3. Everything is fail-soft: a missing, truncated, corrupt or
//     version-skewed file degrades to the cold path with the reason
//     recorded in PersistenceNotes — never a panic, never a wrong
//     answer.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/catalog"
	"blinkdb/internal/sample"
	"blinkdb/internal/types"
)

const (
	// warmupFileVersion versions the warmup file's layout.
	warmupFileVersion = 2
	// sampleManifestVersion versions the per-table sample manifest blob.
	sampleManifestVersion = 1
)

// WarmupState is empty: the warmup file carries nothing the engine does
// not hold itself. It stays only because the repository benchmark passes
// one to SnapshotWarmup; a change to the benchmark removes it.
type WarmupState struct{}

// RestoreReport summarises what RestoreWarmup brought back.
type RestoreReport struct {
	// Plans and Results count replayed plan-cache templates and
	// result-cache answers; Costs counts the template cost estimates
	// seeded.
	Plans, Results, Costs int
}

// PersistenceNotes returns the reasons persistence fell back to cold
// paths (stale signatures, corrupt files, warmup queries that no longer
// replay) since the engine was opened — the audit trail behind "clean
// rebuild, never wrong". Empty when everything loaded warm or persistence
// is off.
func (e *Engine) PersistenceNotes() []string {
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	return append([]string(nil), e.persistNotes...)
}

// noteF records a fall-back reason. The caller holds persistMu.
func (e *Engine) noteF(format string, args ...any) {
	e.persistNotes = append(e.persistNotes, fmt.Sprintf(format, args...))
}

// --- build signatures -------------------------------------------------

// hashW is a tiny FNV-1a sink for signature building.
type hashW struct{ h uint64 }

func newHashW() *hashW { return &hashW{h: 14695981039346656037} }

func (w *hashW) bytes(b []byte) {
	for _, c := range b {
		w.h = (w.h ^ uint64(c)) * 1099511628211
	}
}
func (w *hashW) str(s string) {
	var n [8]byte
	putU64(&n, uint64(len(s)))
	w.bytes(n[:])
	w.bytes([]byte(s))
}
func (w *hashW) u64(v uint64) {
	var n [8]byte
	putU64(&n, v)
	w.bytes(n[:])
}
func (w *hashW) i64(v int64)   { w.u64(uint64(v)) }
func (w *hashW) f64(v float64) { w.u64(math.Float64bits(v)) }

func putU64(b *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// sampleSignature hashes everything that determines what CreateSamples
// builds: the base table's identity and content stats, the resolved
// options, and the engine knobs the build config inherits. Matching
// signatures mean a rebuild would reproduce the persisted families
// bit for bit (sampling is seeded-deterministic).
func (e *Engine) sampleSignature(entry *catalog.Entry, opts SampleOptions, blockRows int) uint64 {
	w := newHashW()
	w.str("blinkdb-sample-sig-v2")
	t := entry.Table
	w.str(t.Name)
	w.str(t.Schema.String())
	w.i64(t.NumRows())
	w.i64(t.Bytes())
	w.i64(int64(len(t.Blocks)))
	// Content stats: per-block zones are cheap and content-sensitive.
	for _, b := range t.Blocks {
		w.i64(int64(b.NumRows()))
		w.i64(b.Bytes)
		w.u64(uint64(b.Node))
		for ci := range b.Zones {
			zmin, zmax, _ := b.ZoneAt(ci)
			hashZone(w, zmin, zmax)
		}
	}
	w.f64(opts.BudgetFraction)
	w.i64(opts.K)
	w.i64(int64(opts.Resolutions))
	w.f64(opts.CapRatio)
	w.f64(opts.UniformFraction)
	for _, tpl := range opts.Templates {
		w.str(types.NewColumnSet(tpl.Columns...).Key())
		w.f64(tpl.Weight)
	}
	w.i64(int64(blockRows))
	w.i64(int64(e.nodes()))
	w.i64(e.cfg.Seed)
	// Not Workers: builds are identical for any pool size, and the default
	// pool follows the host's cores — a restart under another GOMAXPROCS
	// must still warm-boot.
	return w.h
}

func hashZone(w *hashW, min, max types.Value) {
	for _, v := range [2]types.Value{min, max} {
		w.u64(uint64(v.Kind))
		w.i64(v.I)
		w.f64(v.F)
		w.str(v.S)
	}
}

// --- sample segment persistence ---------------------------------------

func (e *Engine) sampleDir(table string) string {
	return filepath.Join(e.cfg.DataDir, "samples", strings.ToLower(table))
}

func (e *Engine) sampleManifestPath(table string) string {
	return filepath.Join(e.sampleDir(table), "MANIFEST.seg")
}

// persistSamples writes every family to its own segment, then the
// manifest last — a crash mid-write leaves either the old manifest
// (pointing at old, still-present segments) or no manifest (cold
// rebuild); never a manifest referencing missing data. It reports
// whether the manifest was written. The caller holds persistMu.
func (e *Engine) persistSamples(table string, sig uint64, fams []*sample.Family, rep *SampleReport) bool {
	dir := e.sampleDir(table)
	for i, f := range fams {
		path := filepath.Join(dir, fmt.Sprintf("fam%d.seg", i))
		if err := blockfile.WriteSegment(path, func(w *blockfile.Writer) error {
			return sample.WriteFamily(w, f)
		}); err != nil {
			e.noteF("persist samples %s: fam%d: %v", table, i, err)
			return false
		}
	}
	var enc blockfile.Enc
	enc.U32(sampleManifestVersion)
	enc.U64(sig)
	enc.I64(rep.BudgetBytes)
	enc.U8(b2u8(rep.Optimal))
	enc.U32(uint32(len(fams)))
	err := blockfile.WriteSegment(e.sampleManifestPath(table), func(w *blockfile.Writer) error {
		w.PutMeta("manifest", enc.Bytes())
		return nil
	})
	if err != nil {
		e.noteF("persist samples %s: manifest: %v", table, err)
		return false
	}
	return true
}

// loadPersistedSamples loads the table's families from DataDir when the
// persisted build signature matches sig. All-or-nothing: families reach
// the catalog only after every segment loaded and validated; any
// failure degrades to a cold rebuild with the reason noted. A load
// records its signature and report in rec as CreateSamples would.
func (e *Engine) loadPersistedSamples(table string, rec *tableSamples, sig uint64) (*SampleReport, bool) {
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	mseg, err := blockfile.Open(e.sampleManifestPath(table))
	if err != nil {
		if !os.IsNotExist(err) {
			e.noteF("load samples %s: manifest: %v", table, err)
		}
		return nil, false
	}
	defer mseg.Close()
	blob, ok := mseg.Meta("manifest")
	if !ok {
		e.noteF("load samples %s: manifest blob missing", table)
		return nil, false
	}
	d := blockfile.NewDec(blob)
	ver := d.U32()
	storedSig := d.U64()
	budget := d.I64()
	optimal := d.U8() != 0
	nfams := d.Count(0)
	if err := d.Err(); err != nil || ver != sampleManifestVersion {
		e.noteF("load samples %s: manifest corrupt or version %d", table, ver)
		return nil, false
	}
	if storedSig != sig {
		e.noteF("load samples %s: build signature changed (stored %x, want %x) — rebuilding", table, storedSig, sig)
		return nil, false
	}

	fams := make([]*sample.Family, 0, nfams)
	segs := make([]*blockfile.Segment, 0, nfams)
	closeSegs := func() {
		for _, s := range segs {
			s.Close()
		}
	}
	var total int64
	for i := 0; i < nfams; i++ {
		path := filepath.Join(e.sampleDir(table), fmt.Sprintf("fam%d.seg", i))
		seg, err := blockfile.Open(path)
		if err != nil {
			e.noteF("load samples %s: fam%d: %v — rebuilding", table, i, err)
			closeSegs()
			return nil, false
		}
		segs = append(segs, seg)
		fam, err := sample.ReadFamily(seg, e.cfg.Workers)
		if err == nil {
			err = fam.Validate()
		}
		if err != nil {
			e.noteF("load samples %s: fam%d: %v — rebuilding", table, i, err)
			closeSegs()
			return nil, false
		}
		fams = append(fams, fam)
	}
	// Loaded columns are zero-copy views into the (usually mmap'd)
	// segments, so the segments must outlive the families: they stay
	// open for the engine's lifetime and unmap on Engine.Close.
	e.openSegs = append(e.openSegs, segs...)
	rep := &SampleReport{BudgetBytes: budget, Optimal: optimal}
	for _, f := range fams {
		if err := e.cat.AddFamily(table, f); err != nil {
			e.noteF("load samples %s: register: %v", table, err)
			return nil, false
		}
		rep.Families = append(rep.Families, FamilyInfo{
			Columns:      f.Phi.Columns(),
			StorageBytes: f.StorageBytes(),
			Rows:         f.StorageRows(),
			Resolutions:  f.Resolutions(),
		})
		total += f.StorageBytes()
	}
	rep.TotalBytes = total
	rec.sig, rec.rep = sig, rep
	return rep, true
}

// --- warmup snapshot / restore ----------------------------------------

func (e *Engine) warmupPath() string {
	return filepath.Join(e.cfg.DataDir, "warmup.seg")
}

// SnapshotWarmup persists the engine's warm state to DataDir: current
// sample families (re-persisted, so refreshes survive restarts; the
// refresh cursor does not, and a restarted engine's first RefreshSamples
// re-draws the first family it loaded), the queries behind the fresh
// plan- and result-cache entries, and every template's cost estimate.
// Safe to call concurrently with queries — it sees a snapshot-quality
// view — and with itself: overlapping calls run one at a time. No-op
// error when DataDir is unset.
func (e *Engine) SnapshotWarmup(WarmupState) error {
	if e.cfg.DataDir == "" {
		return fmt.Errorf("blinkdb: SnapshotWarmup requires Config.DataDir")
	}
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	// Re-persist families for every table whose CreateSamples persisted
	// them, under the signature and report recorded then: a family
	// refreshed since (RefreshSamples, Maintain) replaces its segment,
	// so the next warm boot resumes from the refreshed state and replays
	// the warmup queries against it.
	e.samples.Range(func(table, v any) bool {
		rec := v.(*tableSamples)
		if rec.rep == nil {
			return true
		}
		if entry, err := e.cat.Lookup(table.(string)); err == nil {
			e.persistSamples(table.(string), rec.sig, entry.Families, rec.rep)
		}
		return true
	})

	var manifest blockfile.Enc
	manifest.U32(warmupFileVersion)

	var adm blockfile.Enc
	costs := e.tele.Costs()
	keys := make([]string, 0, len(costs))
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	adm.U32(uint32(len(keys)))
	for _, k := range keys {
		adm.Str(k)
		adm.F64(costs[k])
	}

	elpBlob := e.rt.ExportWarmup()
	return blockfile.WriteSegment(e.warmupPath(), func(w *blockfile.Writer) error {
		w.PutMeta("manifest", manifest.Bytes())
		w.PutMeta("elp", elpBlob)
		w.PutMeta("admission", adm.Bytes())
		return nil
	})
}

// RestoreWarmup replays DataDir/warmup.seg into the engine: each
// persisted query runs again, refilling the plan and result caches (see
// elp.Runtime.ImportWarmup), so a warm boot does the prepares and scans
// the caches hold before the server reports ready, and Stats counts them
// (Prepares, AnswersByLevel and the probe counters move). The replays are
// not observed by telemetry; the persisted cost estimates seed the
// templates that have none yet, skipping values that are not positive
// and finite. Call it AFTER tables are loaded and CreateSamples ran. A missing file returns
// (nil, nil) — a normal cold boot; corrupt or version-skewed files
// degrade to (nil, nil) with the reason in PersistenceNotes, as does
// each query that no longer replays. Never panics.
func (e *Engine) RestoreWarmup() (*RestoreReport, error) {
	if e.cfg.DataDir == "" {
		return nil, fmt.Errorf("blinkdb: RestoreWarmup requires Config.DataDir")
	}
	e.persistMu.Lock()
	defer e.persistMu.Unlock()
	seg, err := blockfile.Open(e.warmupPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		e.noteF("restore warmup: %v — cold boot", err)
		return nil, nil
	}
	defer seg.Close()

	rep := &RestoreReport{}
	blob, ok := seg.Meta("manifest")
	if !ok {
		e.noteF("restore warmup: manifest missing — cold boot")
		return nil, nil
	}
	d := blockfile.NewDec(blob)
	if ver := d.U32(); d.Err() != nil || ver != warmupFileVersion {
		e.noteF("restore warmup: manifest version %d (want %d) — cold boot", ver, warmupFileVersion)
		return nil, nil
	}

	if blob, ok := seg.Meta("elp"); ok {
		plans, results, skipped, err := e.rt.ImportWarmup(blob)
		if err != nil {
			e.noteF("restore warmup: elp state: %v — caches warm lazily", err)
		}
		for _, err := range skipped {
			e.noteF("restore warmup: %v — skipped", err)
		}
		rep.Plans, rep.Results = plans, results
	}

	if blob, ok := seg.Meta("admission"); ok {
		d := blockfile.NewDec(blob)
		n := d.Count(5)
		keys, costs := make([]string, 0, n), make([]float64, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			keys = append(keys, d.Str())
			costs = append(costs, d.F64())
		}
		if err := d.Err(); err != nil {
			e.noteF("restore warmup: cost estimates corrupt: %v", err)
		} else {
			for i, k := range keys {
				if e.tele.SeedCost(k, costs[i]) {
					rep.Costs++
				}
			}
		}
	}
	return rep, nil
}

func b2u8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
