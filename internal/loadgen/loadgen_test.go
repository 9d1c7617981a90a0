package loadgen

import (
	"math"
	"reflect"
	"testing"
	"time"

	"blinkdb/internal/sqlparser"
)

func testSpec(seed int64) Spec {
	return Spec{
		Seed:     seed,
		Duration: 2 * time.Second,
		Cohorts: []Cohort{
			{
				Name:    "interactive",
				Clients: 8, RateQPS: 40, RateSkew: 1.2,
				Arrival: Poisson,
				Templates: []Template{
					{Pattern: "SELECT AVG(sessiontime) FROM sessions WHERE city = 'c%d'", Cardinality: 50, Skew: 1.3, Weight: 3},
					{Pattern: "SELECT COUNT(sessiontime) FROM sessions WHERE os = 'o%d'", Cardinality: 10, Skew: 1.1, Weight: 1},
				},
				Bounds: []Bound{
					{ErrorPct: 5, Confidence: 95, Weight: 2},
					{Weight: 1},
				},
				StreamFraction: 0.25,
				GiveUpSeconds:  2,
			},
			{
				Name:    "batch",
				Clients: 2, RateQPS: 10,
				Arrival: Gamma, Burstiness: 4,
				Templates: []Template{
					{Pattern: "SELECT SUM(sessiontime) FROM sessions WHERE genre = 'g%d'", Cardinality: 20, Weight: 1},
				},
				Bounds: []Bound{{TimeSeconds: 0.2, Weight: 1}},
			},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec(42))
	if len(a.Requests) == 0 {
		t.Fatal("empty trace")
	}
	if b := Generate(testSpec(42)); !reflect.DeepEqual(a, b) {
		t.Fatal("two Generate calls with equal specs produced different traces")
	}
	if c := Generate(testSpec(43)); reflect.DeepEqual(a.Requests, c.Requests) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestArrivalRateMatchesSpec(t *testing.T) {
	spec := Spec{
		Seed: 1, Duration: 10 * time.Second,
		Cohorts: []Cohort{{
			Name: "c", Clients: 4, RateQPS: 100, Arrival: Poisson,
			Templates: []Template{{Pattern: "SELECT AVG(x) FROM t WHERE k = 'v%d'", Cardinality: 5, Weight: 1}},
		}},
	}
	n := len(Generate(spec).Requests)
	want := 1000.0
	if math.Abs(float64(n)-want) > 0.15*want {
		t.Fatalf("got %d arrivals for a 100 qps × 10 s cohort, want ~%.0f", n, want)
	}
}

func TestGammaBurstier(t *testing.T) {
	base := Cohort{
		Name: "c", Clients: 1, RateQPS: 200,
		Templates: []Template{{Pattern: "SELECT AVG(x) FROM t WHERE k = 'v%d'", Cardinality: 5, Weight: 1}},
	}
	cv2 := func(kind ArrivalKind, burst float64) float64 {
		c := base
		c.Arrival, c.Burstiness = kind, burst
		tr := Generate(Spec{Seed: 9, Duration: 20 * time.Second, Cohorts: []Cohort{c}})
		var gaps []float64
		for i := 1; i < len(tr.Requests); i++ {
			gaps = append(gaps, float64(tr.Requests[i].AtMicros-tr.Requests[i-1].AtMicros))
		}
		mean, m2 := 0.0, 0.0
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		for _, g := range gaps {
			m2 += (g - mean) * (g - mean)
		}
		return m2 / float64(len(gaps)) / (mean * mean)
	}
	p, g := cv2(Poisson, 1), cv2(Gamma, 8)
	if p > 2 {
		t.Fatalf("Poisson CV² = %.2f, want ~1", p)
	}
	if g < 2*p {
		t.Fatalf("Gamma(burstiness 8) CV² = %.2f not clearly burstier than Poisson %.2f", g, p)
	}
}

func TestRateSkewFavorsFirstClient(t *testing.T) {
	spec := Spec{
		Seed: 3, Duration: 5 * time.Second,
		Cohorts: []Cohort{{
			Name: "c", Clients: 6, RateQPS: 120, RateSkew: 1.5, Arrival: Poisson,
			Templates: []Template{{Pattern: "SELECT AVG(x) FROM t WHERE k = 'v%d'", Cardinality: 5, Weight: 1}},
		}},
	}
	counts := map[int]int{}
	for _, r := range Generate(spec).Requests {
		counts[r.Client]++
	}
	if counts[0] <= counts[5]*2 {
		t.Fatalf("rate skew 1.5: client 0 issued %d, client 5 issued %d — expected a clear head/tail split", counts[0], counts[5])
	}
}

func TestGeneratedSQLParses(t *testing.T) {
	tr := Generate(testSpec(11))
	seen := map[string]bool{}
	for _, r := range tr.Requests {
		if seen[r.SQL] {
			continue
		}
		seen[r.SQL] = true
		if _, err := sqlparser.Parse(r.SQL); err != nil {
			t.Fatalf("generated SQL does not parse: %q: %v", r.SQL, err)
		}
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct queries generated; mix too narrow", len(seen))
	}
}

func TestScheduleOrdered(t *testing.T) {
	tr := Generate(testSpec(5))
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].AtMicros < tr.Requests[i-1].AtMicros {
			t.Fatalf("schedule out of order at %d", i)
		}
	}
}
