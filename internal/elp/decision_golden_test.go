package elp

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"blinkdb/internal/exec"
	"blinkdb/internal/telemetry"
)

// decisionCases are the query shapes the ELP decides differently: each
// bound kind, a disjunction, GROUP BY, LIMIT, probes escalated past a rare
// value (one stopped by a time bound), an unreachable bound, an exact
// query and joins. alt is the same template with other constants.
var decisionCases = []struct{ name, src, alt string }{
	{"error",
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 5%`,
		`SELECT AVG(time) FROM sessions WHERE city = 'city2' ERROR WITHIN 5%`},
	{"time",
		`SELECT AVG(time) FROM sessions WHERE os = 'OSX' WITHIN 1 SECONDS`,
		`SELECT AVG(time) FROM sessions WHERE os = 'Linux' WITHIN 1 SECONDS`},
	{"both",
		`SELECT AVG(time) FROM sessions WHERE city = 'city1' ERROR WITHIN 1% WITHIN 2 SECONDS`,
		`SELECT AVG(time) FROM sessions WHERE city = 'city3' ERROR WITHIN 1% WITHIN 0.5 SECONDS`},
	{"or",
		`SELECT COUNT(*) FROM sessions WHERE city = 'city1' OR os = 'Win7' ERROR WITHIN 10%`,
		`SELECT COUNT(*) FROM sessions WHERE city = 'city2' OR os = 'Linux' ERROR WITHIN 10%`},
	{"groupby",
		`SELECT AVG(time) FROM sessions WHERE genre = 'western' GROUP BY os ERROR WITHIN 25%`,
		`SELECT AVG(time) FROM sessions WHERE genre = 'drama' GROUP BY os ERROR WITHIN 25%`},
	{"limit",
		`SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 10% LIMIT 3`,
		`SELECT COUNT(*) FROM sessions GROUP BY city ERROR WITHIN 15% LIMIT 5`},
	{"rare",
		`SELECT COUNT(*) FROM sessions WHERE city = 'city30' AND genre = 'drama' ERROR WITHIN 20%`,
		`SELECT COUNT(*) FROM sessions WHERE city = 'city60' AND genre = 'drama' ERROR WITHIN 20%`},
	{"rare-covering",
		`SELECT COUNT(*) FROM sessions WHERE city = 'city150' ERROR WITHIN 20%`,
		`SELECT COUNT(*) FROM sessions WHERE city = 'city90' ERROR WITHIN 20%`},
	{"rare-time",
		`SELECT COUNT(*) FROM sessions WHERE city = 'city60' AND genre = 'drama' ERROR WITHIN 20% WITHIN 1 SECONDS`,
		`SELECT COUNT(*) FROM sessions WHERE city = 'city30' AND genre = 'drama' ERROR WITHIN 20% WITHIN 1 SECONDS`},
	{"unreachable",
		`SELECT AVG(time) FROM sessions WHERE genre = 'nosuchgenre' ERROR WITHIN 1%`,
		`SELECT AVG(time) FROM sessions WHERE genre = 'western' ERROR WITHIN 1%`},
	{"exact",
		`SELECT AVG(time) FROM sessions WHERE city = 'city1'`,
		`SELECT AVG(time) FROM sessions WHERE city = 'city2'`},
	{"join",
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' ERROR WITHIN 10%`,
		`SELECT AVG(time) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Microsoft' ERROR WITHIN 10%`},
	{"join-time",
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Apple' WITHIN 1.0086 SECONDS`,
		`SELECT COUNT(*) FROM sessions JOIN vendors ON os = os WHERE vendor = 'Microsoft' WITHIN 0.78 SECONDS`},
}

// decisionGolden is what the runtime decided for every case and mode:
// per disjunct the family, level and base-table flag, the latencies and
// projected bound as IEEE-754 bits; an FNV-1a digest of the reasons and
// the answer's bits; one of the span tree outside the scans; and the
// executor, probe and prepare counts the query added. A stream line adds
// each refinement's level and digest.
const decisionGolden = `
error cold d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=e97757012685962c spans=484a860a83c29b40 execs=2/1/1
error hit d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=a69d64ce9d91aef9 spans=d14563c408677836 execs=1/0/0
error hit-new d0=[city]:L3:base=false probe=3fd0000000000000 read=3fe825482a610bef pb=3ffb8db64a1d7b6d sim=3ff012a4153085f8 digest=5f9dba7feb085935 spans=21b3cf95b010fe37 execs=1/0/0
error stream d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=6d3e265d9d583226 spans=f9426b26d0750be6 execs=4/1/1 refs=[L0:a65db2763d4a34a1,L1:96332c726760c16d,L2:9a12bbf7594bbacc]
time cold d0=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1724c23c74c3a pb=3ffab29663f098d3 sim=3fe9724c23c74c3a digest=d7d6397a3ad1a827 spans=c5623896e72f3c94 execs=2/1/1
time hit d0=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1724c23c74c3a pb=3ffab29663f098d3 sim=3fe9724c23c74c3a digest=f9c6f49e4046af52 spans=91f7eac2969ea753 execs=1/0/0
time hit-new d0=[os+url]:L1:base=false probe=3fd0000000000000 read=3fe16d902fa98eff pb=400ab29663f098d3 sim=3fe96d902fa98eff digest=ce1763debe4e0edf spans=bbf7ce671cd56dd2 execs=1/0/0
time stream d0=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1724c23c74c3a pb=3ffab29663f098d3 sim=3fe9724c23c74c3a digest=e0e5a1f0d784ff19 spans=fe58f14db84d35e4 execs=3/1/1 refs=[L0:73ad2fa4f00046b9,L1:bbc5eaadc6942839]
both cold d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=941ddbaf696fb033 spans=484a860a83c29b40 execs=2/1/1
both hit d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=8371b158a98017aa spans=d14563c408677836 execs=1/0/0
both hit-new d0=[city]:L0:base=false probe=3fd0000000000000 read=0000000000000000 pb=402baa18eb6d2ae7 sim=3fd0000000000000 digest=d8e0c83a1da78e46 spans=2e19e0cb765970b0 execs=1/0/0
both stream d0=[city]:L3:base=false probe=3fd0000000000000 read=3fef18b049067464 pb=3ffb8db64a1d7b6d sim=3ff38c5824833a32 digest=a5d5010221c35eed spans=f9426b26d0750be6 execs=4/1/1 refs=[L0:45e8c791fd7b4238,L1:53bab337b1ecfe92,L2:e025092db87b377d]
or cold d0=[city]:L2:base=false probe=3fd0000000000000 read=3fe7e67ec11af139 pb=40938b5cee899211 d1=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1a6dd3e8d2772 pb=407816abfeb082ae sim=3fefe67ec11af139 digest=183846de2a3ee320 spans=9cdb550fa2151a90 execs=4/2/1
or hit d0=[city]:L2:base=false probe=3fd0000000000000 read=3fe7e67ec11af139 pb=40938b5cee899211 d1=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1a6dd3e8d2772 pb=407816abfeb082ae sim=3fefe67ec11af139 digest=06b087b179e6011c spans=5be0f1f7e9b0a13b execs=2/0/0
or hit-new d0=[city]:L2:base=false probe=3fd0000000000000 read=3fe1087f49b8260b pb=40938b5cee899211 d1=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe91b549726a9ba pb=407816abfeb082ae sim=3ff08daa4b9354dd digest=16c93da062555714 spans=e88072d9189dea6d execs=2/0/0
or stream d0=[city]:L2:base=false probe=3fd0000000000000 read=3fe7e67ec11af139 pb=40938b5cee899211 d1=[os+url]:L2:base=false probe=3fd0000000000000 read=3fe1a6dd3e8d2772 pb=407816abfeb082ae sim=3fefe67ec11af139 digest=42428a72c2b158f0 spans=a4a18f95594193f1 execs=6/2/1 refs=[L0:14251d1dc253194c,L1:c660a35913a0b451]
groupby cold d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84633e7ce6b4f pb=401b075aa55e5f8e sim=3ff02319f3e735a8 digest=144ca31e9f28f6b9 spans=6fb2169856bb7338 execs=5/4/1
groupby hit d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84633e7ce6b4f pb=401b075aa55e5f8e sim=3ff02319f3e735a8 digest=28ccb560df7f11ec spans=3627ceae37fd8855 execs=1/0/0
groupby hit-new d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84633e7ce6b4f pb=401b075aa55e5f8e sim=3ff02319f3e735a8 digest=d22a7106f07bd4b1 spans=3627ceae37fd8855 execs=1/0/0
groupby stream d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84633e7ce6b4f pb=401b075aa55e5f8e sim=3ff02319f3e735a8 digest=689d6f0191461983 spans=86626f0316d0c17f execs=6/4/1 refs=[L0:93f1ebd3402fbcd3,L1:8008d045f44ddb0a]
limit cold d0=-:L0:base=true probe=3fd0000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4003d2c984684938 digest=fd8227c2db7151e7 spans=dd77ada40896df83 execs=2/1/1
limit hit d0=-:L0:base=true probe=3fd0000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4003d2c984684938 digest=0f34466f305bb300 spans=44b824f3fbbfc101 execs=1/0/0
limit hit-new d0=[city]:L2:base=false probe=3fd0000000000000 read=3fe97703dfe48e6e pb=40997de86810e1e8 sim=3ff0bb81eff24737 digest=49d9e9d168bf1124 spans=fe54ff23e5a0faf1 execs=1/0/0
limit stream d0=-:L0:base=true probe=3fd0000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4003d2c984684938 digest=719b2bd676365ed5 spans=a5a5ad77a32b7ea1 execs=2/1/1 refs=[]
rare cold d0=[city]:L1:base=false probe=3fe8e38d4f13e537 read=0000000000000000 pb=40117f9a291dccb3 sim=3fe8e38d4f13e537 digest=28d7088a937fb78e spans=aa70a426b0d901fb execs=5/5/1
rare hit d0=[city]:L1:base=false probe=3fe8e38d4f13e537 read=0000000000000000 pb=40117f9a291dccb3 sim=3fe8e38d4f13e537 digest=91e8570b17cdaf19 spans=10d4cf10d8ec6b23 execs=0/0/0
rare hit-new d0=[city]:L1:base=false probe=3fe8e38d4f13e537 read=0000000000000000 pb=40117f9a291dccb3 sim=3fe8e38d4f13e537 digest=8ee3bbfff9650cc3 spans=940ec78a89b74507 execs=1/0/0
rare stream d0=[city]:L1:base=false probe=3fe8e38d4f13e537 read=0000000000000000 pb=40117f9a291dccb3 sim=3fe8e38d4f13e537 digest=093f9ffb1b9b5c98 spans=4ad6b9a26c7cfb44 execs=5/5/1 refs=[]
rare-covering cold d0=[city]:L3:base=false probe=3ffcc9bf74824dba read=0000000000000000 pb=0000000000000000 sim=3ffcc9bf74824dba digest=fb0de9978bce4f63 spans=75cb504a1ca0ebb2 execs=4/4/1
rare-covering hit d0=[city]:L3:base=false probe=3ffcc9bf74824dba read=0000000000000000 pb=0000000000000000 sim=3ffcc9bf74824dba digest=6bc74093d64634d4 spans=10d4cf10d8ec6b23 execs=0/0/0
rare-covering hit-new d0=[city]:L3:base=false probe=3ffcc9bf74824dba read=0000000000000000 pb=0000000000000000 sim=3ffcc9bf74824dba digest=fecea98cf31e1466 spans=2e19e0cb765970b0 execs=1/0/0
rare-covering stream d0=[city]:L3:base=false probe=3ffcc9bf74824dba read=0000000000000000 pb=0000000000000000 sim=3ffcc9bf74824dba digest=cb18c89e6ff9e501 spans=ec1d4f66d1241173 execs=4/4/1 refs=[]
rare-time cold d0=[city]:L1:base=false probe=3fe8b10ab6e477ee read=0000000000000000 pb=0000000000000000 sim=3fe8b10ab6e477ee digest=cfaeeb4fcb1d8838 spans=54bd88ce47fdf3d6 execs=5/5/1
rare-time hit d0=[city]:L1:base=false probe=3fe8b10ab6e477ee read=0000000000000000 pb=0000000000000000 sim=3fe8b10ab6e477ee digest=c4ba0eccc6c5d6db spans=10d4cf10d8ec6b23 execs=0/0/0
rare-time hit-new d0=[city]:L1:base=false probe=3fe8b10ab6e477ee read=0000000000000000 pb=0000000000000000 sim=3fe8b10ab6e477ee digest=303d9c3be24fa1a1 spans=47065bb8e4f0e806 execs=1/0/0
rare-time stream d0=[city]:L1:base=false probe=3fe8b10ab6e477ee read=0000000000000000 pb=0000000000000000 sim=3fe8b10ab6e477ee digest=1797ced34c8503a6 spans=536112e8866ff247 execs=5/5/1 refs=[]
unreachable cold d0=-:L0:base=true probe=3ffddf0deadad35e read=4001d2c984684938 pb=0000000000000000 sim=401061283cead974 digest=e3774cec34861652 spans=f0e810e0faf2854e execs=8/7/1
unreachable hit d0=-:L0:base=true probe=3ffddf0deadad35e read=4001d2c984684938 pb=0000000000000000 sim=401061283cead974 digest=d2d7f4ed2a67820b spans=44b824f3fbbfc101 execs=1/0/0
unreachable hit-new d0=-:L0:base=true probe=3ffddf0deadad35e read=4001d2c984684938 pb=0000000000000000 sim=401061283cead974 digest=d21d89dfbee7f421 spans=44b824f3fbbfc101 execs=1/0/0
unreachable stream d0=-:L0:base=true probe=3ffddf0deadad35e read=4001d2c984684938 pb=0000000000000000 sim=401061283cead974 digest=fc5e8acf17767158 spans=50c4d894caa1af7c execs=8/7/1 refs=[]
exact cold d0=-:L0:base=true probe=0000000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4001d2c984684938 digest=285b0b60524c080c spans=551d5076496e6579 execs=1/0/1
exact hit d0=-:L0:base=true probe=0000000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4001d2c984684938 digest=1faf91c3b0c5283d spans=44b824f3fbbfc101 execs=1/0/0
exact hit-new d0=-:L0:base=true probe=0000000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4001d2c984684938 digest=e6f3a5963323c780 spans=44b824f3fbbfc101 execs=1/0/0
exact stream d0=-:L0:base=true probe=0000000000000000 read=4001d2c984684938 pb=0000000000000000 sim=4001d2c984684938 digest=9a0ef60fff9257f6 spans=4966bc7788f9fbe2 execs=1/0/1 refs=[]
join cold d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84702201cd80b pb=400187308fd5cbc7 sim=3ff02381100e6c06 digest=7240ab56ceabf2af spans=87563e2e5444c48c execs=2/1/1
join hit d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84702201cd80b pb=400187308fd5cbc7 sim=3ff02381100e6c06 digest=87eb8c1dfda6c68c spans=3627ceae37fd8855 execs=1/0/0
join hit-new d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84702201cd80b pb=400187308fd5cbc7 sim=3ff02381100e6c06 digest=79f0c82d8d473427 spans=3627ceae37fd8855 execs=1/0/0
join stream d0=uniform:L2:base=false probe=3fd0000000000000 read=3fe84702201cd80b pb=400187308fd5cbc7 sim=3ff02381100e6c06 digest=34918c07ae6d1191 spans=0fb54a61d1cec991 execs=3/1/1 refs=[L0:1e817e73a6aee9b3,L1:1220e17cc54a0dfe]
join-time cold d0=uniform:L1:base=false probe=3fd0000000000000 read=3fe0f666420669b6 pb=40a3b8a5e96c7195 sim=3fe8f666420669b6 digest=41944c73f643f54e spans=320881386e9c48f9 execs=2/1/1
join-time hit d0=uniform:L1:base=false probe=3fd0000000000000 read=3fe0f666420669b6 pb=40a3b8a5e96c7195 sim=3fe8f666420669b6 digest=100a7d5abca725ab spans=47db712256d34ac2 execs=1/0/0
join-time hit-new d0=uniform:L0:base=false probe=3fd0000000000000 read=3f19c709cd978652 pb=40b3b8a5e96c7195 sim=3fd0019c709cd978 digest=b681ecedf392a71f spans=2e19e0cb765970b0 execs=1/0/0
join-time stream d0=uniform:L1:base=false probe=3fd0000000000000 read=3fe0f666420669b6 pb=40a3b8a5e96c7195 sim=3fe8f666420669b6 digest=7fd2f6e92cbeacb4 spans=25e57d7160ab41c6 execs=2/1/1 refs=[L0:159787b1cbfb1ac1]
`

func TestDecisionGolden(t *testing.T) {
	if got := decisionTable(t); strings.TrimSpace(got) != strings.TrimSpace(decisionGolden) {
		t.Errorf("decisions moved.\ngot:\n%s\nwant:\n%s", got, decisionGolden)
	}
}

// decisionTable runs every case cold, as a plan-cache hit with the same
// constants, as one with other constants, and — on a runtime without a plan
// cache, so the session prepares — as a stream.
func decisionTable(t *testing.T) string {
	t.Helper()
	f := joinFixture(t, 40000, Options{Scale: 2e4, PlanCacheSize: 64})
	streamer := New(f.cat, f.clus, Options{Scale: 2e4})
	var out strings.Builder
	for _, c := range decisionCases {
		for _, mode := range []struct{ name, src string }{{"cold", c.src}, {"hit", c.src}, {"hit-new", c.alt}} {
			before := f.rt.Stats()
			tr := telemetry.New("q")
			resp, err := answerTraced(context.Background(), f.rt, parse(t, mode.src), tr)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, mode.name, err)
			}
			tr.Finish()
			fmt.Fprintf(&out, "%s %s %s spans=%016x %s\n", c.name, mode.name, decisionLine(resp),
				spanDigest(tr), execCounts(f.rt.Stats().Delta(before)))
		}
		before := streamer.Stats()
		tr := telemetry.New("q")
		refs := collectTraced(t, streamer, parse(t, c.src), tr)
		tr.Finish()
		var levels []string
		for _, r := range refs[:len(refs)-1] {
			levels = append(levels, fmt.Sprintf("L%d:%016x", r.Level, responseDigest(r.Resp)))
		}
		fmt.Fprintf(&out, "%s stream %s spans=%016x %s refs=[%s]\n", c.name, decisionLine(refs[len(refs)-1].Resp),
			spanDigest(tr), execCounts(streamer.Stats().Delta(before)), strings.Join(levels, ","))
	}
	return out.String()
}

// decisionLine renders a response's decisions and its digest.
func decisionLine(resp *Response) string {
	var b strings.Builder
	for i, d := range resp.Decisions {
		fam := "-"
		if d.View.Family != nil {
			fam = strings.ReplaceAll(d.View.Family.Label(), " ", "+")
		}
		fmt.Fprintf(&b, "d%d=%s:L%d:base=%t probe=%016x read=%016x pb=%016x ", i, fam, d.View.Level, d.UsedBase,
			math.Float64bits(d.ProbeLatency), math.Float64bits(d.ReadLatency), math.Float64bits(d.PredictedBound))
	}
	fmt.Fprintf(&b, "sim=%016x digest=%016x", math.Float64bits(resp.SimLatency), responseDigest(resp))
	return b.String()
}

// responseDigest is an FNV-1a digest of a response's reasons, each with
// the cache markers blinkdb renders after it, and answer bits.
func responseDigest(resp *Response) uint64 {
	h := fnv.New64a()
	var markers string
	if resp.Cache != "" {
		markers += "; cache=" + resp.Cache
	}
	if resp.ResultCache != "" {
		markers += "; result=" + resp.ResultCache
	}
	for _, d := range resp.Decisions {
		fmt.Fprintf(h, "%s%s;%016x;", d.Reason, markers, math.Float64bits(d.RequiredRows))
	}
	digestResult(h, resp.Result)
	return h.Sum64()
}

func digestResult(h interface{ Write([]byte) (int, error) }, r *exec.Result) {
	fmt.Fprintf(h, "%d/%d/%d/%016x;", r.RowsScanned, r.RowsMatched, r.BytesScanned, math.Float64bits(r.WeightedMatched))
	for _, g := range r.Groups {
		for _, k := range g.Key {
			fmt.Fprintf(h, "%s,", k.Key())
		}
		for _, e := range g.Estimates {
			fmt.Fprintf(h, "%016x %016x %016x %d %016x %t;", math.Float64bits(e.Point), math.Float64bits(e.StdErr),
				math.Float64bits(e.Bound), e.Rows, math.Float64bits(e.EffRows), e.Exact)
		}
	}
}

// spanDigest digests the names and notes of a trace's spans, depth first,
// not descending into scans (whose range spans depend on the schedule).
func spanDigest(tr *telemetry.Trace) uint64 {
	h := fnv.New64a()
	var walk func(s *telemetry.Span, depth int)
	walk = func(s *telemetry.Span, depth int) {
		fmt.Fprintf(h, "%d %s %v;", depth, s.Name(), s.Notes())
		if strings.HasPrefix(s.Name(), "scan blocks=") {
			return
		}
		for _, c := range s.Children() {
			walk(c, depth+1)
		}
	}
	walk(tr.Root(), 0)
	return h.Sum64()
}

func execCounts(d Stats) string {
	return fmt.Sprintf("execs=%d/%d/%d", d.PlanExecs, d.ProbeExecs, d.Prepares)
}
