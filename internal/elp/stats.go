package elp

import "maps"

// Stats is a point-in-time snapshot of the runtime's serving counters,
// the observability surface for the query pipeline — Engine.Stats returns
// it as blinkdb.EngineStats. All counters are cumulative since the runtime
// was created; use Delta to measure an interval between two snapshots.
type Stats struct {
	// PlanExecs counts executor invocations of any kind — candidate count
	// passes, full-plan probes, probe escalations, and final reads. It is
	// the physical-work counter: a plan-cache hit that reuses a memoized
	// answer adds 0.
	PlanExecs int64
	// ProbeExecs counts the subset of PlanExecs that were ELP probes:
	// §4.1.1's count pass on each candidate family, the plan's one run on
	// the winner (or on the lone candidate or covering family), and §4.2
	// escalations. Comparing N ≥ 2 candidates is therefore N + 1 probe
	// executions — N cheap counts and one full pass — not N. The plan
	// cache exists to amortize exactly these.
	ProbeExecs int64
	// Prepares counts template preparations: compilations with their
	// probe+profile work. With the cache on, this is the cold-path count.
	Prepares int64
	// PlanCacheHits / PlanCacheMisses count plan-cache outcomes. After a
	// catalog version change every template misses once: the cache starts
	// empty in the new version's generation. Both stay 0 when the
	// cache is disabled. A result-cache hit consults neither the plan
	// cache nor these counters.
	PlanCacheHits, PlanCacheMisses int64
	// ResultCacheHits / ResultCacheMisses / ResultCacheShared count
	// result-cache outcomes: exact replays served from memory, executions
	// that entered the cache, and singleflight waiters that shared a
	// concurrent miss's execution. After a catalog version change every
	// answer misses once, as in the plan cache. All
	// stay 0 when the result cache is disabled.
	ResultCacheHits, ResultCacheMisses, ResultCacheShared int64
	// Cancelled counts queries aborted by context cancellation (client
	// disconnect, deadline) once they entered the pipeline — before
	// scanning or mid-scan. A caller that gives up before calling the
	// runtime, such as a request cancelled while queued for admission, is
	// counted by whoever queued it. Cancelled queries produce no answer and
	// are not counted in AnswersByLevel.
	Cancelled int64
	// AnswersByLevel counts final answers by the resolution level that
	// served them (-1 = base table), whether freshly executed or served
	// from the prepared-query memo. One entry per conjunctive disjunct.
	// Result-cache hits replay a recorded answer without re-planning and
	// are not re-counted here.
	AnswersByLevel map[int]int64
}

// bump increments one counter under the stats mutex. Call sites pass a
// pointer to the field (`rt.bump(&rt.stats.PlanCacheHits)`); computing the
// field address outside the lock is safe — only the write is guarded.
func (rt *Runtime) bump(counter *int64) {
	rt.statMu.Lock()
	*counter++
	rt.statMu.Unlock()
}

// countExec counts one executor run, and an ELP probe when probe is set.
func (rt *Runtime) countExec(probe bool) {
	rt.statMu.Lock()
	rt.stats.PlanExecs++
	if probe {
		rt.stats.ProbeExecs++
	}
	rt.statMu.Unlock()
}

// PlanCacheHitRate returns hits/(hits+misses), or 0 before any
// cache-eligible query ran.
func (s Stats) PlanCacheHitRate() float64 {
	total := s.PlanCacheHits + s.PlanCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanCacheHits) / float64(total)
}

// ResultCacheHitRate returns the fraction of result-cache-eligible
// queries answered without executing: (hits+shared)/(hits+shared+misses),
// or 0 before any such query ran.
func (s Stats) ResultCacheHitRate() float64 {
	total := s.ResultCacheHits + s.ResultCacheShared + s.ResultCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.ResultCacheHits+s.ResultCacheShared) / float64(total)
}

// Delta returns the interval counters s − prev: what happened between
// the prev snapshot and this one. AnswersByLevel holds only levels whose
// count changed, and the hit rates of the returned value are interval
// rates, not cumulative ones.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		PlanExecs:         s.PlanExecs - prev.PlanExecs,
		ProbeExecs:        s.ProbeExecs - prev.ProbeExecs,
		Prepares:          s.Prepares - prev.Prepares,
		PlanCacheHits:     s.PlanCacheHits - prev.PlanCacheHits,
		PlanCacheMisses:   s.PlanCacheMisses - prev.PlanCacheMisses,
		ResultCacheHits:   s.ResultCacheHits - prev.ResultCacheHits,
		ResultCacheMisses: s.ResultCacheMisses - prev.ResultCacheMisses,
		ResultCacheShared: s.ResultCacheShared - prev.ResultCacheShared,
		Cancelled:         s.Cancelled - prev.Cancelled,
	}
	d.AnswersByLevel = make(map[int]int64)
	for level, n := range s.AnswersByLevel {
		if diff := n - prev.AnswersByLevel[level]; diff != 0 {
			d.AnswersByLevel[level] = diff
		}
	}
	return d
}

// Stats returns a consistent snapshot of the runtime's counters: all
// fields are copied under one mutex, so a ratio like PlanCacheHitRate
// never mixes a hits value from one moment with a misses value from
// another. Safe for concurrent use with Run.
func (rt *Runtime) Stats() Stats {
	rt.statMu.Lock()
	defer rt.statMu.Unlock()
	s := rt.stats
	s.AnswersByLevel = maps.Clone(s.AnswersByLevel)
	return s
}

// recordLevel counts one served answer at a resolution level (-1 base).
func (rt *Runtime) recordLevel(level int) {
	rt.statMu.Lock()
	rt.stats.AnswersByLevel[level]++
	rt.statMu.Unlock()
}
