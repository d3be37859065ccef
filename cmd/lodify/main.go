// Command lodify runs the full platform as an HTTP server: the
// generated LOD world, the context management platform, the semantic
// annotation pipeline and (optionally) a synthetic content corpus,
// exposed through the web/mobile interface of §3-§4.
//
// Usage:
//
//	lodify [-addr :8080] [-contents 300] [-users 20] [-seed 7]
//
// Then try:
//
//	curl 'http://localhost:8080/api/search?q=Turi'
//	curl 'http://localhost:8080/api/about?pid=1'
//	curl 'http://localhost:8080/sparql?query=ASK%20{?s%20?p%20?o}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"lodify/internal/annotate"
	"lodify/internal/ctxmgr"
	"lodify/internal/lod"
	"lodify/internal/obs"
	"lodify/internal/resolver"
	"lodify/internal/social"
	"lodify/internal/store"
	"lodify/internal/ugc"
	"lodify/internal/web"
	"lodify/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	contents := flag.Int("contents", 300, "synthetic contents to pre-publish (0 = empty platform)")
	users := flag.Int("users", 20, "synthetic users")
	seed := flag.Int64("seed", 7, "workload seed")
	snapshot := flag.String("snapshot", "", "N-Quads snapshot file (loaded at boot; POST /admin/snapshot saves)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for pprof/metrics/expvar (empty = disabled)")
	slowQuery := flag.Duration("slow-query", 500*time.Millisecond, "slow-query log threshold: queries at least this slow are captured with their plan profile on /debug/slowlog (0 captures every query, negative disables)")
	traceExport := flag.String("trace-export", "", "append finished spans as OTLP-shaped JSON to this file (empty = disabled)")
	shards := flag.Int("shards", 0, "store shard count, rounded up to a power of two (0 = GOMAXPROCS, 1 = legacy single-shard layout)")
	flag.Parse()

	// Every store this process creates (the LOD world's and any
	// auxiliary ones) honors the operator's shard choice.
	store.SetDefaultShards(*shards)

	// The library default keeps the slow-query log (and with it plan
	// profiling) off; the server process opts in here.
	obs.SlowQueries.SetThreshold(*slowQuery)
	if *traceExport != "" {
		fe, err := obs.NewFileExporter(*traceExport, "lodify")
		if err != nil {
			log.Fatalf("trace-export: %v", err)
		}
		defer fe.Close()
		obs.Spans.AddExporter(fe)
		log.Printf("exporting spans to %s", *traceExport)
	}

	if *debugAddr != "" {
		//lodlint:ignore goleak — process-lifetime debug server: it serves until exit by design, there is nothing to await or cancel
		go serveDebug(*debugAddr)
	}

	log.Printf("generating LOD world (DBpedia/Geonames/LinkedGeoData substitutes)...")
	world := lod.Generate(lod.DefaultConfig())
	log.Printf("LOD world: %d triples, %d cities, %d store shards",
		world.Store.Len(), len(world.Cities), world.Store.NumShards())

	ctx := ctxmgr.New(world)
	broker := resolver.DefaultBroker(world.Store)
	pipe := annotate.NewPipeline(world.Store, broker, annotate.DefaultConfig())
	platform := ugc.New(world.Store, ctx, pipe, ugc.Options{})
	for _, n := range social.DefaultNetworks() {
		platform.AddCrossPoster(n)
	}

	if *contents > 0 {
		log.Printf("publishing %d synthetic contents by %d users...", *contents, *users)
		spec := workload.Spec{
			Users: *users, Contents: *contents, FriendsPerUser: 4,
			RatedFraction: 0.7, Seed: *seed,
		}
		if _, err := workload.Generate(platform, world, spec); err != nil {
			log.Fatalf("workload: %v", err)
		}
	}

	srv := web.NewServer(platform)
	if *snapshot != "" {
		srv.SnapshotPath = *snapshot
		if n, err := platform.Store.LoadFile(*snapshot); err == nil {
			log.Printf("loaded %d quads from snapshot %s", n, *snapshot)
		}
	}
	fmt.Printf("lodify listening on %s — store holds %d triples\n", *addr, platform.Store.Len())
	log.Fatal(http.ListenAndServe(*addr, srv))
}

// serveDebug runs the profiling/introspection endpoints on their own
// mux (never the default one, so the main server cannot leak them):
// /debug/pprof/*, /metrics and /debug/vars.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", obs.MetricsHandler())
	mux.Handle("/debug/vars", obs.ExpvarHandler())
	log.Printf("debug server (pprof, metrics) on %s", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("debug server: %v", err)
	}
}
