package elp

import (
	"context"
	"fmt"
	"hash/crc32"

	"blinkdb/internal/blockfile"
	"blinkdb/internal/sqlparser"
	"blinkdb/internal/types"
)

// Warmup persistence. Everything the runtime's two reuse layers hold is a
// deterministic function of the catalog and of the queries that filled
// them, so the warmup blob keeps those queries, as SQL, and a restart
// replays them against the catalog it actually loaded: nothing restored
// was computed before the restart, so nothing restored can be stale.
//
// The blob holds one group per prepared state: the query that prepared
// it, whether it is its template's plan-cache entry (live), and every
// cached answer computed under it with that answer's plan-cache note.
// Answers are grouped rather than each replayed through Run because a
// template is frozen from the probe of the query that prepared it: an
// answer cached under a state since evicted and re-prepared from other
// constants would otherwise come back with another decision.

// warmupCRC checksums the blob (CRC32-Castagnoli, as the segment format
// does). The segment's section CRC already covers the blob on disk; this
// one makes the blob self-checking however it is stored, because a
// flipped byte in a literal still parses, as a query with other
// constants, and would change what the replay restores.
var warmupCRC = crc32.MakeTable(crc32.Castagnoli)

// warmGroup is one prepared state's queries.
type warmGroup struct {
	prep    string // the query that prepared the state
	live    bool   // the state is its template's plan-cache entry
	answers []warmAnswer
}

// warmAnswer is one cached answer's query and plan-cache note.
type warmAnswer struct{ sql, note string }

// ExportWarmup serializes the queries behind the cache entries of the
// catalog's current version for replay via ImportWarmup after a restart.
// Safe to call concurrently with queries; it sees a snapshot-quality view
// of both caches.
func (rt *Runtime) ExportWarmup() []byte {
	var groups []*warmGroup
	byPrep := map[*sqlparser.Query]*warmGroup{}
	group := func(prep *sqlparser.Query, live bool) *warmGroup {
		g := byPrep[prep]
		if g == nil {
			g = &warmGroup{prep: prep.String(), live: live}
			byPrep[prep] = g
			groups = append(groups, g)
		}
		return g
	}
	gen := rt.current()
	gen.plans.Range(func(_ string, pq *prepared) bool {
		group(pq.prepQ, true)
		return true
	})
	gen.results.Range(func(_ string, ent *resultEntry) bool {
		g := group(ent.prep, false)
		g.answers = append(g.answers, warmAnswer{ent.q.String(), ent.resp.Cache})
		return true
	})

	var e blockfile.Enc
	e.U32(uint32(len(groups)))
	for _, g := range groups {
		e.Str(g.prep)
		e.U8(b2u(g.live))
		e.U32(uint32(len(g.answers)))
		for _, a := range g.answers {
			e.Str(a.sql)
			e.Str(a.note)
		}
	}
	var out blockfile.Enc
	out.U32(crc32.Checksum(e.Bytes(), warmupCRC))
	out.Raw(e.Bytes())
	return out.Bytes()
}

// decodeWarmup reads a whole blob; malformed bytes are an error.
func decodeWarmup(blob []byte) ([]warmGroup, error) {
	d := blockfile.NewDec(blob)
	sum := d.U32()
	payload := d.Raw(d.Remaining())
	if d.Err() != nil || crc32.Checksum(payload, warmupCRC) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	d = blockfile.NewDec(payload)
	groups := make([]warmGroup, d.Count(9))
	for i := range groups {
		g := &groups[i]
		g.prep, g.live = d.Str(), d.U8() != 0
		g.answers = make([]warmAnswer, d.Count(8))
		for j := range g.answers {
			a := warmAnswer{d.Str(), d.Str()}
			if a.note != "" && a.note != "hit" && a.note != "miss" {
				return nil, fmt.Errorf("cache note %q", a.note)
			}
			g.answers[j] = a
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return groups, nil
}

// ImportWarmup replays a blob produced by ExportWarmup: per group, prepare
// runs on the preparing query — the state enters the plan cache when the
// group is live — and execute runs each answer's query against that state,
// the answer entering the result cache with its persisted note. It returns
// how many templates and answers were restored. A group or answer that no
// longer parses or replays (a table or column gone) is skipped, with the
// reason in skipped; a blob that fails its checksum, is malformed or
// carries an unknown cache note returns an error with nothing applied.
// Everything replayed goes into the generation current at the start: if
// the catalog changes during the replay, what it restored is dropped with
// that generation.
//
// Replay is real work, counted as such: Stats.Prepares and AnswersByLevel
// (and the probe counters) move as the queries run. Call it after the
// catalog holds the tables and families the queries read.
func (rt *Runtime) ImportWarmup(blob []byte) (plans, results int, skipped []error, err error) {
	groups, err := decodeWarmup(blob)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("elp: warmup blob: %w", err)
	}
	ctx := context.Background()
	gen := rt.current()
	for _, g := range groups {
		live := g.live && gen.plans != nil
		answers := g.answers
		if gen.results == nil {
			answers = nil
		}
		if !live && len(answers) == 0 {
			continue
		}
		q, key, params, err := parseWarm(g.prep)
		var pq *prepared
		if err == nil {
			pq, err = rt.prepare(ctx, q, key, params, nil)
		}
		if err != nil {
			skipped = append(skipped, fmt.Errorf("template %q: %w", g.prep, err))
			continue
		}
		if live {
			gen.plans.Put(key, pq)
			plans++
		}
		for _, a := range answers {
			q, akey, params, err := parseWarm(a.sql)
			var resp *Response
			if err == nil && akey != key {
				err = errTemplateMismatch
			}
			if err == nil {
				resp, err = rt.execute(ctx, pq, q, params, nil, nil)
			}
			if err != nil {
				skipped = append(skipped, fmt.Errorf("answer %q: %w", a.sql, err))
				continue
			}
			resp.Cache = a.note
			gen.results.Put(resultKey(key, params), newResultEntry(resp, q, pq))
			results++
		}
	}
	return plans, results, skipped, nil
}

// parseWarm parses and normalizes one persisted query.
func parseWarm(sql string) (*sqlparser.Query, string, []types.Value, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, "", nil, err
	}
	key, params := sqlparser.Normalize(q)
	return q, key, params, nil
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
