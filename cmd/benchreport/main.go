// Command benchreport runs the complete experiment suite (E1-E10 of
// DESIGN.md) and prints the tables EXPERIMENTS.md records. Individual
// experiments can be selected with -exp; -json switches the output to
// a machine-readable document (one JSON object on stdout, prose stays
// on stderr) suitable for BENCH_<label>.json artifacts.
//
// Usage:
//
//	benchreport               # run everything
//	benchreport -exp e1,e7    # only the annotation sweep and E7
//	benchreport -contents 600 # bigger corpus
//	benchreport -json -label nightly > BENCH_nightly.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"lodify/internal/experiments"
	"lodify/internal/workload"
)

// parseInts parses a comma-separated integer list flag value.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (e1..e10, sparql, ingest, shard, album, slo) or 'all'")
	ingestQuads := flag.Int("ingestQuads", 100000, "statement count for the ingest and shard experiments")
	shardCounts := flag.String("shardCounts", "1,2,4,8", "shard counts swept by the shard experiment")
	shardReaders := flag.Int("shardReaders", 2, "concurrent leased readers during the shard experiment")
	albums := flag.Int("albums", 1000, "registered keyword albums for the album experiment")
	albumIngest := flag.Duration("albumIngest", 1500*time.Millisecond, "concurrent-ingest window of the album experiment")
	contents := flag.Int("contents", 300, "corpus size for the shared environment")
	users := flag.Int("users", 20, "corpus users")
	seed := flag.Int64("seed", 7, "corpus seed")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document on stdout instead of tables")
	label := flag.String("label", "local", "run label recorded in the JSON document")
	target := flag.String("target", "", "base URL of a running lodify server for the slo experiment (empty = in-process server)")
	sloDur := flag.Duration("sloDur", 3*time.Second, "closed-loop duration of the slo experiment driver")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	sel := func(id string) bool { return want["all"] || want[id] }

	log.SetFlags(0)
	start := time.Now()
	log.Printf("building environment (%d users, %d contents, seed %d)...", *users, *contents, *seed)
	env, err := experiments.NewEnv(workload.Spec{
		Users: *users, Contents: *contents, FriendsPerUser: 4, RatedFraction: 0.7, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("environment ready in %v (store: %d triples)\n", time.Since(start).Round(time.Millisecond), env.Platform.Store.Len())

	// In JSON mode the tables are suppressed and each experiment's rows
	// collect here instead; durations marshal as nanosecond integers.
	results := map[string]any{}
	section := func(id, title string) {
		if !*jsonOut {
			fmt.Printf("\n== %s — %s ==\n\n", strings.ToUpper(id), title)
		}
	}
	emit := func(id string, rows any, report func() string) {
		if *jsonOut {
			results[id] = rows
		} else {
			fmt.Print(report())
		}
	}

	if sel("e1") {
		section("e1", "Fig. 1 annotation pipeline: Jaro-Winkler threshold sweep")
		rows := env.E1ThresholdSweep([]float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95})
		emit("e1", rows, func() string { return experiments.E1Report(rows) })
	}
	if sel("e2") {
		section("e2", "§2.1 D2R dump-rdf scaling")
		rows, err := experiments.E2DumpScale([]int{100, 1000, 5000, 20000})
		if err != nil {
			log.Fatal(err)
		}
		emit("e2", rows, func() string { return experiments.E2Report(rows) })
	}
	if sel("e3") {
		section("e3", "§2.3 virtual albums (the paper's three queries)")
		rows, err := env.E3Albums()
		if err != nil {
			log.Fatal(err)
		}
		emit("e3", rows, func() string { return experiments.E3Report(rows) })
	}
	if sel("e4") {
		section("e4", "Figs. 2-3 incremental AJAX search (typing 'Turin')")
		rows, err := env.E4IncrementalSearch("Turin")
		if err != nil {
			log.Fatal(err)
		}
		emit("e4", rows, func() string { return experiments.E4Report(rows) })
	}
	if sel("e5") {
		section("e5", "§4.1 'About' linked-data mashup (four-arm UNION)")
		row, err := env.E5AboutMashup()
		if err != nil {
			log.Fatal(err)
		}
		emit("e5", row, func() string { return experiments.E5Report(row) })
	}
	if sel("e6") {
		section("e6", "§1.1 triple-tag navigation (baseline)")
		rows := env.E6TagAlbums()
		emit("e6", rows, func() string { return experiments.E6Report(rows) })
	}
	if sel("e7") {
		section("e7", "keyword vs semantic retrieval (the paper's headline claim)")
		rows, err := experiments.E7KeywordVsSemantic([]int{100, 300, 1000}, *seed)
		if err != nil {
			log.Fatal(err)
		}
		emit("e7", rows, func() string { return experiments.E7Report(rows) })
	}
	if sel("e8") {
		section("e8", "§2.2.1 POI tag -> DBpedia resolution")
		rows := env.E8POIResolution()
		emit("e8", rows, func() string { return experiments.E8Report(rows) })
	}
	if sel("e9") {
		section("e9", "§6 federated push (publish -> PuSH delivery)")
		row, err := experiments.E9FederationPush(20)
		if err != nil {
			log.Fatal(err)
		}
		emit("e9", row, func() string { return experiments.E9Report(row) })
	}
	if sel("e10") {
		section("e10", "§2.2.2 resolver & graph-priority ablation")
		rows := env.E10Ablation()
		emit("e10", rows, func() string { return experiments.E10Report(rows) })
	}
	if sel("sparql") {
		section("sparql", "SPARQL engine microbenchmarks (id-space execution)")
		rows, err := sparqlBenchRows(200, 3000, 50)
		if err != nil {
			log.Fatal(err)
		}
		emit("sparql", rows, func() string { return sparqlBenchReport(rows) })
	}
	if sel("ingest") {
		section("ingest", "§2.1 bulk ingest: sequential vs chunked parallel load, streaming dump")
		rows, err := experiments.IngestBench(*ingestQuads)
		if err != nil {
			log.Fatal(err)
		}
		emit("ingest", rows, func() string { return experiments.IngestReport(rows) })
	}
	if sel("shard") {
		section("shard", "§2.1 sharded store writer scaling: concurrent bulk load under leased readers")
		counts, err := parseInts(*shardCounts)
		if err != nil {
			log.Fatalf("shardCounts: %v", err)
		}
		rows, err := experiments.ShardBench(*ingestQuads, counts, *shardReaders)
		if err != nil {
			log.Fatal(err)
		}
		emit("shard", rows, func() string { return experiments.ShardReport(rows) })
	}
	if sel("album") {
		section("album", "§2.3 materialized semantic albums vs per-request evaluation under concurrent ingest")
		row, err := experiments.AlbumBench(*albums, *albumIngest)
		if err != nil {
			log.Fatal(err)
		}
		emit("album", row, func() string { return experiments.AlbumReport(row) })
	}
	sloOK := true
	if sel("slo") {
		section("slo", "query-level observability: SLO attainment and plan profiles under live HTTP load")
		rows, err := sloExperiment(env, *target, *sloDur, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sloOK = rows.OK
		emit("slo", rows, func() string { return sloReport(rows) })
	}
	if sel("infer") || want["all"] {
		section("infer", "§2.3 RDFS inference capabilities (extension)")
		report := experiments.InferReport(env)
		emit("infer", map[string]string{"report": report}, func() string { return report })
	}

	if *jsonOut {
		doc := map[string]any{
			"label":       *label,
			"contents":    *contents,
			"users":       *users,
			"seed":        *seed,
			"experiments": results,
			"totalNs":     time.Since(start).Nanoseconds(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatalf("encode: %v", err)
		}
		if !sloOK {
			log.Fatal("slo: one or more objectives are unattainable (zero events) — the driver did not exercise a route the SLO covers")
		}
		return
	}
	fmt.Printf("\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
	if !sloOK {
		log.Fatal("slo: one or more objectives are unattainable (zero events) — the driver did not exercise a route the SLO covers")
	}
}
