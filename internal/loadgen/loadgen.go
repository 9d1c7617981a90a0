// Package loadgen is a ServeGen-style workload generator for the
// serving layer's tests: it turns a declarative Spec — heterogeneous
// client cohorts with skewed per-client rates, bursty arrival processes,
// per-cohort template mixes and error/time-bound distributions — into a
// deterministic Trace of timestamped HTTP query requests, and replays
// that trace against a live blinkdb-server, counting each arrival's
// outcome (served, shed, unavailable, cancelled, errored).
//
// The paper's headline claim is bounded response time under real query
// mixes (Figs. 7–8); a bench that replays one template against a quiet
// server never exercises the admission, streaming, or cancellation
// accounting that claim rests on. loadgen is the continuous version of
// those figures: a production-shaped mix with a reproducibility
// contract strong enough to pin serving-path regressions.
//
// # Model
//
// A Spec holds Cohorts. Each cohort models one population of clients
// that share a workload shape:
//
//   - Clients and RateQPS: the cohort's aggregate arrival rate is
//     divided across its clients by a Zipf law with exponent RateSkew
//     (client 1 hottest), so a cohort models the usual few-heavy-users/
//     long-tail shape rather than identical robots.
//   - Arrival: each client is an independent renewal process. Poisson
//     draws exponential inter-arrivals; Gamma draws Gamma inter-arrivals
//     with squared coefficient of variation Burstiness (CV² = 1 is
//     Poisson-like, larger is burstier: clumps of back-to-back arrivals
//     separated by long gaps).
//   - Templates: a weighted mix of SQL templates; each arrival picks a
//     template by weight and fills its parameter from a per-template
//     Zipf law over the parameter domain (hot constants repeat, the tail
//     keeps surfacing cold ones).
//   - Bounds: a weighted distribution of per-request error bounds
//     (ERROR WITHIN n% AT CONFIDENCE c%) and response-time bounds
//     (WITHIN n SECONDS) appended to the generated SQL.
//   - StreamFraction, GiveUpSeconds: the fraction of requests issued as
//     streaming-refinement sessions, and an optional client patience —
//     requests are abandoned (context cancelled) after GiveUpSeconds,
//     which is what drives the server's cancel-while-queued accounting
//     under load.
//
// # Determinism contract
//
// Generate is a pure function of the Spec: two calls with equal Specs
// produce identical Traces regardless of host, GOMAXPROCS, or wall
// clock. Every random draw comes from per-client PRNGs seeded by
// (Spec.Seed, cohort index, client index) in a fixed draw order, and the
// merged schedule is ordered by (arrival time, cohort, client, per-client
// sequence), a total order with no map iteration or clock dependence
// anywhere.
//
// Running a Spec's trace therefore reproduces the exact request stream of
// any earlier run: same SQL strings, same bounds, same ordering, same
// timestamps. What is NOT deterministic is which outcome each arrival
// meets — Run drives a real server over real HTTP — which is precisely
// the quantity under test.
//
// # Test support
//
// No product code imports this package yet: the server's load tests
// (cmd/blinkdb-server, internal/server) are its callers. The root
// package's TestProductReachability allowlists it as test support until a
// benchmark leg that replays a Spec against the server becomes its first
// product caller.
package loadgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"blinkdb/internal/zipf"
)

// ArrivalKind names a client's inter-arrival process.
type ArrivalKind string

const (
	// Poisson draws exponential inter-arrivals (memoryless, CV² = 1).
	Poisson ArrivalKind = "poisson"
	// Gamma draws Gamma inter-arrivals with CV² = Cohort.Burstiness;
	// shape < 1 yields the bursty clump-and-gap pattern real request
	// logs show.
	Gamma ArrivalKind = "gamma"
)

// Template is one SQL shape in a cohort's mix. Pattern must contain
// exactly one %d verb, filled from a Zipf draw over [1, Cardinality].
type Template struct {
	// Pattern is the SQL with one %d parameter slot.
	Pattern string
	// Cardinality is the parameter domain size (draws are 1-based).
	Cardinality int
	// Skew is the Zipf exponent over the parameter domain; <= 0 draws
	// uniformly.
	Skew float64
	// Weight is the template's share of the cohort's arrivals.
	Weight float64
}

// Bound is one entry of a cohort's error/time-bound distribution.
// The zero Bound issues the SQL unmodified (no bound clauses).
type Bound struct {
	// ErrorPct appends ERROR WITHIN n% when > 0.
	ErrorPct float64
	// Confidence appends AT CONFIDENCE c% (requires ErrorPct > 0).
	Confidence float64
	// TimeSeconds appends WITHIN n SECONDS when > 0.
	TimeSeconds float64
	// Weight is this bound's share of the cohort's arrivals.
	Weight float64
}

// Cohort models one client population sharing a workload shape. See the
// package comment for field semantics.
type Cohort struct {
	Name string

	Clients  int
	RateQPS  float64
	RateSkew float64

	Arrival    ArrivalKind
	Burstiness float64

	Templates []Template
	Bounds    []Bound

	// StreamFraction of requests are issued as streaming sessions.
	StreamFraction float64
	// GiveUpSeconds abandons (cancels) a request still unanswered after
	// this long; 0 waits forever.
	GiveUpSeconds float64
}

// Spec is a full workload description: what Generate turns into a Trace.
type Spec struct {
	Seed     int64
	Duration time.Duration
	Cohorts  []Cohort
}

// Request is one generated arrival: everything the runner needs to
// issue it.
type Request struct {
	// AtMicros is the arrival offset from run start, in microseconds.
	AtMicros int64
	// Cohort / Client identify the issuer; Seq numbers the client's own
	// arrivals from 0 (part of the deterministic ordering).
	Cohort string
	Client int
	Seq    int
	// SQL is the final query text, bound clauses included.
	SQL string
	// Stream requests a refinement session instead of a single answer.
	Stream bool
	// GiveUpSeconds copies the cohort's patience: the runner abandons
	// the request after this long.
	GiveUpSeconds float64

	// cohortIdx is the generation-time tiebreak.
	cohortIdx int
}

// Trace is a fully materialized request schedule: what Run replays.
// Requests are ordered by (AtMicros, cohort, client, seq).
type Trace struct {
	Seed     int64
	Duration time.Duration
	Requests []Request
}

// Generate materializes spec into a Trace. Pure and deterministic: see
// the package comment for the contract.
func Generate(spec Spec) *Trace {
	tr := &Trace{Seed: spec.Seed, Duration: spec.Duration}
	for ci, c := range spec.Cohorts {
		clients := c.Clients
		if clients <= 0 {
			clients = 1
		}
		rates := clientRates(c.RateQPS, clients, c.RateSkew)
		for cl := 0; cl < clients; cl++ {
			if rates[cl] <= 0 {
				continue
			}
			rng := rand.New(rand.NewSource(clientSeed(spec.Seed, ci, cl)))
			tr.Requests = append(tr.Requests,
				clientArrivals(rng, &c, ci, cl, rates[cl], spec.Duration)...)
		}
	}
	sort.Slice(tr.Requests, func(i, j int) bool {
		a, b := &tr.Requests[i], &tr.Requests[j]
		if a.AtMicros != b.AtMicros {
			return a.AtMicros < b.AtMicros
		}
		if a.cohortIdx != b.cohortIdx {
			return a.cohortIdx < b.cohortIdx
		}
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		return a.Seq < b.Seq
	})
	return tr
}

// clientRates splits an aggregate cohort rate across clients by a Zipf
// law: rate_i ∝ 1/(i+1)^skew, normalized to sum to rateQPS. skew <= 0
// is uniform.
func clientRates(rateQPS float64, clients int, skew float64) []float64 {
	weights := make([]float64, clients)
	sum := 0.0
	for i := range weights {
		w := 1.0
		if skew > 0 {
			w = 1 / math.Pow(float64(i+1), skew)
		}
		weights[i] = w
		sum += w
	}
	for i := range weights {
		weights[i] = rateQPS * weights[i] / sum
	}
	return weights
}

// clientSeed derives one client's PRNG seed from (spec seed, cohort
// index, client index) via a splitmix64 finalizer, so neighboring
// clients get uncorrelated streams.
func clientSeed(seed int64, cohort, client int) int64 {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	h = mix64(h + uint64(cohort)*0xBF58476D1CE4E5B9)
	h = mix64(h + uint64(client)*0x94D049BB133111EB)
	return int64(h)
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// clientArrivals generates one client's arrival sequence. Draw order
// per event is fixed — gap, template, parameter, bound, stream — so the
// stream is reproducible from the client seed alone.
func clientArrivals(rng *rand.Rand, c *Cohort, cohortIdx, client int, rate float64, dur time.Duration) []Request {
	// Per-template parameter samplers, constructed in template order so
	// setup consumes no randomness.
	params := make([]*zipf.CDFGenerator, len(c.Templates))
	for i, t := range c.Templates {
		if t.Skew > 0 && t.Cardinality > 1 {
			params[i] = zipf.NewGeneratorCDF(rng, t.Skew, t.Cardinality)
		}
	}
	burst := c.Burstiness
	if burst <= 0 {
		burst = 1
	}
	var out []Request
	horizon := dur.Seconds()
	at := 0.0
	for seq := 0; ; seq++ {
		at += interArrival(rng, c.Arrival, rate, burst)
		if at >= horizon {
			break
		}
		ti := weightedTemplate(rng, c.Templates)
		t := &c.Templates[ti]
		param := 1
		if params[ti] != nil {
			param = params[ti].Next()
		} else if t.Cardinality > 1 {
			param = rng.Intn(t.Cardinality) + 1
		}
		b := weightedBound(rng, c.Bounds)
		stream := false
		if c.StreamFraction > 0 {
			stream = rng.Float64() < c.StreamFraction
		}
		out = append(out, Request{
			AtMicros:      int64(at * 1e6),
			Cohort:        c.Name,
			Client:        client,
			Seq:           seq,
			SQL:           bindSQL(t.Pattern, param, b),
			Stream:        stream,
			GiveUpSeconds: c.GiveUpSeconds,
			cohortIdx:     cohortIdx,
		})
	}
	return out
}

// interArrival draws one inter-arrival gap in seconds for a client with
// the given rate. Gamma matches the mean 1/rate with CV² = burst; shape
// 1/burst < 1 produces the clumpy pattern bursty clients show.
func interArrival(rng *rand.Rand, kind ArrivalKind, rate, burst float64) float64 {
	mean := 1 / rate
	if kind != Gamma || burst == 1 {
		return rng.ExpFloat64() * mean
	}
	shape := 1 / burst
	scale := mean * burst
	return gammaRand(rng, shape) * scale
}

// gammaRand samples Gamma(shape, 1) by Marsaglia–Tsang squeeze; the
// shape < 1 case boosts through Gamma(shape+1) · U^(1/shape).
func gammaRand(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return gammaRand(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// weightedTemplate draws a template index by weight (uniform when all
// weights are zero). One Float64 per call, always, to keep the draw
// order fixed.
func weightedTemplate(rng *rand.Rand, ts []Template) int {
	u := rng.Float64()
	total := 0.0
	for _, t := range ts {
		total += t.Weight
	}
	if total <= 0 {
		return int(u * float64(len(ts)))
	}
	u *= total
	for i, t := range ts {
		u -= t.Weight
		if u < 0 {
			return i
		}
	}
	return len(ts) - 1
}

// weightedBound draws one bound by weight; an empty distribution means
// "no bounds" (the zero Bound). One Float64 per call, always.
func weightedBound(rng *rand.Rand, bs []Bound) Bound {
	u := rng.Float64()
	if len(bs) == 0 {
		return Bound{}
	}
	total := 0.0
	for _, b := range bs {
		total += b.Weight
	}
	if total <= 0 {
		return bs[int(u*float64(len(bs)))]
	}
	u *= total
	for _, b := range bs {
		u -= b.Weight
		if u < 0 {
			return b
		}
	}
	return bs[len(bs)-1]
}

// bindSQL fills the template parameter and appends the bound clauses in
// the grammar the server's bindBounds would produce, so generated SQL
// and parameter-bound SQL price to the same admission templates.
func bindSQL(pattern string, param int, b Bound) string {
	sql := fmt.Sprintf(pattern, param)
	if b.ErrorPct > 0 {
		sql += fmt.Sprintf(" ERROR WITHIN %g%%", b.ErrorPct)
		if b.Confidence > 0 {
			sql += fmt.Sprintf(" AT CONFIDENCE %g%%", b.Confidence)
		}
	}
	if b.TimeSeconds > 0 {
		sql += fmt.Sprintf(" WITHIN %g SECONDS", b.TimeSeconds)
	}
	return sql
}
