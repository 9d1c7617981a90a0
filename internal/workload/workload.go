// Package workload generates the two evaluation datasets of §6.1 at
// laptop scale, preserving the statistical structure the paper relies on:
//
//   - Conviva: a de-normalised video-session fact table with heavily
//     Zipf-skewed dimensions (city, customer, ASN, object id, DMA) and a
//     weighted query-template mix matching Fig. 2 / Fig. 6(a). The real
//     17 TB trace is proprietary; this synthetic equivalent exercises the
//     same code paths (repro substitution documented in DESIGN.md).
//   - TPC-H: a lineitem-shaped table with the 22 benchmark queries mapped
//     to the 6 unique templates of §6.1 / Fig. 6(b).
//
// Each dataset carries query templates with weights and random
// instantiation functions so experiments can draw realistic traces.
package workload

import (
	"fmt"
	"math/rand"

	"blinkdb/internal/optimizer"
	"blinkdb/internal/storage"
	"blinkdb/internal/types"
	"blinkdb/internal/zipf"
)

// QueryTemplate is one template ⟨φ, w⟩ plus a generator that instantiates
// it with random constants (the paper: templates fix columns, not values).
type QueryTemplate struct {
	// Name labels the template in experiment output (T1..Tn).
	Name string
	// Weight is the normalized frequency in the trace.
	Weight float64
	// Columns is φ: the WHERE ∪ GROUP BY column set.
	Columns types.ColumnSet
	// Gen instantiates the template. The suffix (bound clause) is
	// appended verbatim.
	Gen func(rng *rand.Rand, boundSuffix string) string
}

// Dataset is a generated table plus its query workload.
type Dataset struct {
	// Name is "conviva" or "tpch".
	Name string
	// Table is the fact table.
	Table *storage.Table
	// Templates is the weighted template mix.
	Templates []QueryTemplate
}

// OptimizerTemplates converts the workload to optimizer input.
func (d *Dataset) OptimizerTemplates() []optimizer.TemplateSpec {
	out := make([]optimizer.TemplateSpec, len(d.Templates))
	for i, t := range d.Templates {
		out[i] = optimizer.TemplateSpec{Columns: t.Columns, Weight: t.Weight}
	}
	return out
}

// Template returns the named template or nil.
func (d *Dataset) Template(name string) *QueryTemplate {
	for i := range d.Templates {
		if d.Templates[i].Name == name {
			return &d.Templates[i]
		}
	}
	return nil
}

// DrawTemplate samples a template according to the weights.
func (d *Dataset) DrawTemplate(rng *rand.Rand) *QueryTemplate {
	total := 0.0
	for _, t := range d.Templates {
		total += t.Weight
	}
	u := rng.Float64() * total
	for i := range d.Templates {
		u -= d.Templates[i].Weight
		if u <= 0 {
			return &d.Templates[i]
		}
	}
	return &d.Templates[len(d.Templates)-1]
}

// ---------- Conviva ----------

// ConvivaConfig sizes the synthetic Conviva dataset.
type ConvivaConfig struct {
	Rows         int
	Nodes        int
	RowsPerBlock int
	Seed         int64
	Place        storage.Placement
}

func (c ConvivaConfig) normalize() ConvivaConfig {
	if c.Rows <= 0 {
		c.Rows = 100000
	}
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.RowsPerBlock <= 0 {
		c.RowsPerBlock = 1024
	}
	return c
}

// ConvivaSchema returns the session-log schema (a representative subset of
// the paper's 104-column fact table).
func ConvivaSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "dt", Kind: types.KindInt},              // date (yyyymmdd)
		types.Column{Name: "customer", Kind: types.KindString},     // content customer
		types.Column{Name: "city", Kind: types.KindString},         // viewer city
		types.Column{Name: "country", Kind: types.KindString},      // viewer country
		types.Column{Name: "dma", Kind: types.KindString},          // market area
		types.Column{Name: "asn", Kind: types.KindInt},             // autonomous system
		types.Column{Name: "os", Kind: types.KindString},           // device OS
		types.Column{Name: "browser", Kind: types.KindString},      // browser
		types.Column{Name: "genre", Kind: types.KindString},        // content genre
		types.Column{Name: "objectid", Kind: types.KindInt},        // media object
		types.Column{Name: "url", Kind: types.KindString},          // site URL
		types.Column{Name: "jointimems", Kind: types.KindFloat},    // startup join time
		types.Column{Name: "sessiontimems", Kind: types.KindFloat}, // session duration
		types.Column{Name: "bufferingms", Kind: types.KindFloat},   // rebuffering time
		types.Column{Name: "bitratekbps", Kind: types.KindFloat},   // average bitrate
		types.Column{Name: "endedflag", Kind: types.KindInt},       // clean exit?
	)
}

// Conviva generates the synthetic Conviva dataset. Dimension skews follow
// the Zipf exponents Appendix A reports as typical for these columns.
func Conviva(cfg ConvivaConfig) *Dataset {
	cfg = cfg.normalize()
	schema := ConvivaSchema()
	tab := storage.NewTable("sessions", schema)
	b := storage.NewBuilder(tab, cfg.RowsPerBlock, cfg.Nodes, cfg.Place)
	rng := rand.New(rand.NewSource(cfg.Seed))

	cityGen := zipf.NewGeneratorCDF(rng, 1.5, 400)
	custGen := zipf.NewGeneratorCDF(rng, 1.4, 300)
	countryGen := zipf.NewGeneratorCDF(rng, 1.3, 60)
	dmaGen := zipf.NewGeneratorCDF(rng, 1.3, 150)
	asnGen := zipf.NewGeneratorCDF(rng, 1.5, 250)
	objGen := zipf.NewGeneratorCDF(rng, 1.6, 2000)
	urlGen := zipf.NewGeneratorCDF(rng, 1.6, 500)
	oses := []string{"Win7", "OSX", "WinXP", "Linux", "iOS", "Android"}
	browsers := []string{"Chrome", "Firefox", "IE", "Safari", "Opera"}
	genres := []string{"western", "drama", "comedy", "news", "sports", "kids", "music", "horror"}

	for i := 0; i < cfg.Rows; i++ {
		// Measures are quantized the way Conviva's pipeline bucketizes
		// them (the paper stratifies on jointimems, which only makes
		// sense over a bounded value domain).
		sessionTime := quantize(rng.ExpFloat64()*600000, 5000) // mean 10 min in ms
		joinTime := quantize(rng.ExpFloat64()*2000, 100)
		buffering := quantize(rng.ExpFloat64()*5000, 250)
		ended := int64(1)
		if rng.Float64() < 0.15 {
			ended = 0
		}
		b.AppendRow(types.Row{
			types.Int(20120301 + int64(rng.Intn(30))),
			types.Str(fmt.Sprintf("cust%03d", custGen.Next())),
			types.Str(fmt.Sprintf("city%03d", cityGen.Next())),
			types.Str(fmt.Sprintf("country%02d", countryGen.Next())),
			types.Str(fmt.Sprintf("dma%03d", dmaGen.Next())),
			types.Int(int64(7000 + asnGen.Next())),
			types.Str(oses[skewedIdx(rng, len(oses))]),
			types.Str(browsers[skewedIdx(rng, len(browsers))]),
			types.Str(genres[rng.Intn(len(genres))]), // uniform: §2.3's Genre
			types.Int(int64(objGen.Next())),
			types.Str(fmt.Sprintf("u%03d.example.com", urlGen.Next())),
			types.Float(joinTime),
			types.Float(sessionTime),
			types.Float(buffering),
			types.Float([]float64{400, 800, 1500, 3000}[skewedIdx(rng, 4)]),
			types.Int(ended),
		})
	}
	d := &Dataset{Name: "conviva", Table: b.Finish()}
	d.Templates = convivaTemplates()
	return d
}

// quantize rounds v down to a multiple of step.
func quantize(v, step float64) float64 {
	return float64(int(v/step)) * step
}

// skewedIdx draws index 0 with ~50% probability, decaying geometrically.
func skewedIdx(rng *rand.Rand, n int) int {
	for i := 0; i < n-1; i++ {
		if rng.Float64() < 0.5 {
			return i
		}
	}
	return n - 1
}

// convivaTemplates mirrors the template mix of Fig. 6(a)/Fig. 7(a): the
// five heavy templates (T1–T5 with the paper's reported frequencies) plus
// a light tail of additional templates representative of the 42 in the
// real trace.
func convivaTemplates() []QueryTemplate {
	day := func(rng *rand.Rand) int64 { return 20120301 + int64(rng.Intn(30)) }
	return []QueryTemplate{
		{
			Name: "T1", Weight: 0.39,
			Columns: types.NewColumnSet("dt", "jointimems"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT COUNT(*), AVG(sessiontimems) FROM sessions WHERE dt = %d AND jointimems < %d %s",
					day(rng), 500+rng.Intn(3000), suffix)
			},
		},
		{
			Name: "T2", Weight: 0.245,
			Columns: types.NewColumnSet("objectid", "jointimems"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT AVG(jointimems) FROM sessions WHERE objectid = %d AND jointimems > %d %s",
					1+rng.Intn(100), 100+rng.Intn(500), suffix)
			},
		},
		{
			Name: "T3", Weight: 0.024,
			Columns: types.NewColumnSet("dt", "dma"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT SUM(sessiontimems) FROM sessions WHERE dma = 'dma%03d' GROUP BY dt %s",
					1+rng.Intn(40), suffix)
			},
		},
		{
			Name: "T4", Weight: 0.317,
			Columns: types.NewColumnSet("country", "endedflag"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT COUNT(*) FROM sessions WHERE country = 'country%02d' AND endedflag = 0 %s",
					1+rng.Intn(20), suffix)
			},
		},
		{
			Name: "T5", Weight: 0.024,
			Columns: types.NewColumnSet("dt", "country"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT AVG(bufferingms) FROM sessions WHERE dt = %d GROUP BY country %s",
					day(rng), suffix)
			},
		},
		// Tail templates (small weights; exercise probing paths).
		{
			Name: "T6", Weight: 0.01,
			Columns: types.NewColumnSet("city"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT AVG(sessiontimems) FROM sessions WHERE city = 'city%03d' %s",
					1+rng.Intn(50), suffix)
			},
		},
		{
			Name: "T7", Weight: 0.01,
			Columns: types.NewColumnSet("asn", "city"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT AVG(sessiontimems) FROM sessions WHERE asn = %d GROUP BY city %s",
					7001+rng.Intn(30), suffix)
			},
		},
	}
}

// ---------- TPC-H ----------

// TPCHConfig sizes the synthetic TPC-H lineitem table.
type TPCHConfig struct {
	Rows         int
	Nodes        int
	RowsPerBlock int
	Seed         int64
	Place        storage.Placement
}

func (c TPCHConfig) normalize() TPCHConfig {
	if c.Rows <= 0 {
		c.Rows = 60000
	}
	if c.Nodes <= 0 {
		c.Nodes = 100
	}
	if c.RowsPerBlock <= 0 {
		c.RowsPerBlock = 1024
	}
	return c
}

// TPCHSchema returns the lineitem schema (TPC-H column subset; date
// columns named per Fig. 6(b)'s abbreviations).
func TPCHSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "orderkey", Kind: types.KindInt},
		types.Column{Name: "partkey", Kind: types.KindInt},
		types.Column{Name: "suppkey", Kind: types.KindInt},
		types.Column{Name: "linenumber", Kind: types.KindInt},
		types.Column{Name: "quantity", Kind: types.KindFloat},
		types.Column{Name: "extendedprice", Kind: types.KindFloat},
		types.Column{Name: "discount", Kind: types.KindFloat},
		types.Column{Name: "tax", Kind: types.KindFloat},
		types.Column{Name: "returnflag", Kind: types.KindString},
		types.Column{Name: "linestatus", Kind: types.KindString},
		types.Column{Name: "shipdt", Kind: types.KindInt},
		types.Column{Name: "commitdt", Kind: types.KindInt},
		types.Column{Name: "receiptdt", Kind: types.KindInt},
		types.Column{Name: "shipmode", Kind: types.KindString},
	)
}

// TPCH generates a lineitem-shaped table. Orders have 1–7 lines (TPC-H
// spec); supplier references are Zipf-skewed to give the [orderkey
// suppkey] family something to stratify.
func TPCH(cfg TPCHConfig) *Dataset {
	cfg = cfg.normalize()
	schema := TPCHSchema()
	tab := storage.NewTable("lineitem", schema)
	b := storage.NewBuilder(tab, cfg.RowsPerBlock, cfg.Nodes, cfg.Place)
	rng := rand.New(rand.NewSource(cfg.Seed))

	suppGen := zipf.NewGeneratorCDF(rng, 1.3, 1000)
	modes := []string{"TRUCK", "MAIL", "SHIP", "RAIL", "AIR", "REG AIR", "FOB"}
	flags := []string{"N", "N", "N", "A", "R"} // N dominates (open orders)

	orderkey := int64(0)
	linesLeft := 0
	for i := 0; i < cfg.Rows; i++ {
		if linesLeft == 0 {
			orderkey++
			linesLeft = 1 + rng.Intn(7)
		}
		linesLeft--
		ship := int64(19940101 + rng.Intn(2000))
		qty := float64(1 + rng.Intn(50))
		price := qty * (900 + rng.Float64()*100000) / 10
		b.AppendRow(types.Row{
			types.Int(orderkey),
			types.Int(int64(1 + rng.Intn(20000))),
			types.Int(int64(suppGen.Next())),
			types.Int(int64(1 + i%7)),
			types.Float(qty),
			types.Float(price),
			types.Float(float64(rng.Intn(11)) / 100),
			types.Float(float64(rng.Intn(9)) / 100),
			types.Str(flags[rng.Intn(len(flags))]),
			types.Str([]string{"O", "F"}[rng.Intn(2)]),
			types.Int(ship),
			types.Int(ship + int64(rng.Intn(60))),
			types.Int(ship + int64(rng.Intn(90))),
			types.Str(modes[skewedIdx(rng, len(modes))]),
		})
	}
	d := &Dataset{Name: "tpch", Table: b.Finish()}
	d.Templates = tpchTemplates()
	return d
}

// tpchTemplates maps the 22 TPC-H queries onto the 6 unique templates of
// §6.1 with the per-template frequencies of Fig. 7(b).
func tpchTemplates() []QueryTemplate {
	return []QueryTemplate{
		{
			Name: "T1", Weight: 0.18,
			Columns: types.NewColumnSet("orderkey", "suppkey"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT SUM(extendedprice) FROM lineitem WHERE suppkey = %d AND orderkey > %d %s",
					1+rng.Intn(50), rng.Intn(5000), suffix)
			},
		},
		{
			Name: "T2", Weight: 0.27,
			Columns: types.NewColumnSet("commitdt", "receiptdt"),
			Gen: func(rng *rand.Rand, suffix string) string {
				d := 19940101 + rng.Intn(1500)
				return fmt.Sprintf(
					"SELECT COUNT(*) FROM lineitem WHERE commitdt < %d AND receiptdt > %d %s",
					d+60, d, suffix)
			},
		},
		{
			Name: "T3", Weight: 0.14,
			Columns: types.NewColumnSet("quantity"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT AVG(extendedprice) FROM lineitem WHERE quantity < %d %s",
					5+rng.Intn(20), suffix)
			},
		},
		{
			Name: "T4", Weight: 0.32,
			Columns: types.NewColumnSet("discount"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT SUM(extendedprice) FROM lineitem WHERE discount >= 0.0%d %s",
					1+rng.Intn(9), suffix)
			},
		},
		{
			Name: "T5", Weight: 0.045,
			Columns: types.NewColumnSet("shipmode"),
			Gen: func(rng *rand.Rand, suffix string) string {
				modes := []string{"TRUCK", "MAIL", "SHIP", "RAIL", "AIR"}
				return fmt.Sprintf(
					"SELECT COUNT(*) FROM lineitem WHERE shipmode = '%s' %s",
					modes[rng.Intn(len(modes))], suffix)
			},
		},
		{
			Name: "T6", Weight: 0.045,
			Columns: types.NewColumnSet("linestatus", "returnflag"),
			Gen: func(rng *rand.Rand, suffix string) string {
				return fmt.Sprintf(
					"SELECT SUM(quantity), AVG(extendedprice) FROM lineitem WHERE returnflag = '%s' GROUP BY linestatus %s",
					[]string{"N", "A", "R"}[rng.Intn(3)], suffix)
			},
		},
	}
}
