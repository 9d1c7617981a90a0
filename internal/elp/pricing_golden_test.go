package elp

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"blinkdb/internal/exec"
	"blinkdb/internal/storage"
)

// pricingGolden is what the commit before row-budgeted partials computed
// for every view of the explore fixture: blocks, pricing ranges, node
// shards, an FNV-1a digest of every range and shard field, and the priced
// seconds as IEEE-754 bits. The executor's unit of work moved; the
// simulated cluster's must not — every level choice, simulated latency
// and gated count (rows_scanned_per_query, bound_met_share) hangs off
// these numbers.
const pricingGolden = `
base L0 blocks=400 ranges=256 shards=100 digest=8b54c0a7a4d5afee seconds=402079869db3d770
[city] L0 blocks=21 ranges=21 shards=21 digest=0b9fa6a66272682e seconds=3ff7b376f951b310
[city] L1 blocks=30 ranges=30 shards=21 digest=23c7a1ba69a55d45 seconds=4004d21260d19e36
[city] delta L1 blocks=9 ranges=9 shards=9 digest=318c0a65bc8c1e7a seconds=3ff760bf3db045f1
[city] L2 blocks=43 ranges=43 shards=21 digest=fbc6758c9dd1b87b seconds=400df2a3152a9e19
[city] delta L2 blocks=13 ranges=13 shards=13 digest=0785099dbb754d4d seconds=3ff75a9c41ff977a
[city] L3 blocks=61 ranges=61 shards=21 digest=f76d5d0e3207008c seconds=4013a0e42d0d1927
[city] delta L3 blocks=18 ranges=18 shards=18 digest=e02bd8d2d7c07502 seconds=3ff7aca77b679cd0
[browser] L0 blocks=18 ranges=18 shards=18 digest=68f9f4d0ef9c20be seconds=3ff7be8705dadfc2
[browser] L1 blocks=27 ranges=27 shards=18 digest=aabcabf15f3ff508 seconds=4004e8acdc1eae4f
[browser] delta L1 blocks=9 ranges=9 shards=9 digest=37d9c7c36fa82cd6 seconds=3ff75fea269f4046
[browser] L2 blocks=40 ranges=40 shards=18 digest=57573ebe899bb49c seconds=400e1f66cc77803e
[browser] delta L2 blocks=13 ranges=13 shards=13 digest=6acfc94e4c1db9cd seconds=3ff75b5bbce4ced2
[browser] L3 blocks=58 ranges=58 shards=18 digest=c4cd74cfaffee552 seconds=4013c80860a17642
[browser] delta L3 blocks=18 ranges=18 shards=18 digest=ae0368e9158ff4fe seconds=3ff7b5f6af1671fb
[country] L0 blocks=19 ranges=19 shards=19 digest=78e5d42ff2629517 seconds=3ff7be920ed60cfc
[country] L1 blocks=28 ranges=28 shards=19 digest=96cce62a51ffe3f7 seconds=4004e3974aa58509
[country] delta L1 blocks=9 ranges=9 shards=9 digest=8783372871a74e4e seconds=3ff75ce6d8dee813
[country] L2 blocks=41 ranges=41 shards=19 digest=c3a5e5a4051b41e2 seconds=400e11a9dccc88f4
[country] delta L2 blocks=13 ranges=13 shards=13 digest=80f1837f46eed305 seconds=3ff7585867493aa5
[country] L3 blocks=59 ranges=59 shards=19 digest=7408e0c1da1e1613 seconds=4013bd5bf34fb165
[country] delta L3 blocks=18 ranges=18 shards=18 digest=31c8a60ae5b87796 seconds=3ff7b8fb07ef38f0
uniform L0 blocks=5 ranges=5 shards=5 digest=848f35e7ae05e2fa seconds=3ff70a324d637c25
uniform L1 blocks=10 ranges=10 shards=5 digest=e554472b4a2b68ab seconds=4004a34c55a086e1
uniform delta L1 blocks=5 ranges=5 shards=5 digest=4bde641f4bd2b722 seconds=3ff70a44b54e630c
uniform L2 blocks=20 ranges=20 shards=10 digest=0e1fd95def1362d4 seconds=400d95bd7fb8a462
uniform delta L2 blocks=10 ranges=10 shards=10 digest=9544bead590ab89a seconds=3ff7650b795cbdd7
uniform L3 blocks=40 ranges=40 shards=20 digest=4b6c80e108e561bb seconds=4013485375529590
uniform delta L3 blocks=20 ranges=20 shards=20 digest=693f5dab94b06c77 seconds=3ff7c0a605b26d27
`

func pricingTable(t *testing.T) string {
	t.Helper()
	f := newExploreFixture(t, 120000, Options{})
	entry, err := f.cat.Lookup("sessions")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	line := func(name string, level int, blocks []*storage.Block) {
		ranges, shards := exec.ScanShards(blocks)
		h := fnv.New64a()
		for _, r := range ranges {
			fmt.Fprintf(h, "r%d-%d;", r.Lo, r.Hi)
		}
		for _, s := range shards {
			fmt.Fprintf(h, "s%d:%v:%d:%d;", s.Node, s.Ranges, s.Bytes, s.LocalBytes)
		}
		secs, err := PriceBlockRead(f.clus, blocks, f.opt.Scale)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s L%d blocks=%d ranges=%d shards=%d digest=%016x seconds=%016x\n",
			name, level, len(blocks), len(ranges), len(shards), h.Sum64(), math.Float64bits(secs))
	}
	line("base", 0, entry.Table.Blocks)
	for _, fam := range entry.Families {
		for lvl := 0; lvl < fam.Resolutions(); lvl++ {
			line(fam.Label(), lvl, fam.View(lvl).Blocks())
			if lvl > 0 {
				line(fam.Label()+" delta", lvl, fam.View(lvl).DeltaBlocks(fam.View(lvl-1)))
			}
		}
	}
	return out.String()
}

// TestPricingPartitionGolden: exec.ScanShards and PriceBlockRead return
// exactly the previous commit's ranges, shards and seconds.
func TestPricingPartitionGolden(t *testing.T) {
	if got := pricingTable(t); strings.TrimSpace(got) != strings.TrimSpace(pricingGolden) {
		t.Errorf("pricing partition moved.\ngot:\n%s\nwant:\n%s", got, pricingGolden)
	}
}
