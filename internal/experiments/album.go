package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lodify/internal/rdf"
	"lodify/internal/sparql"
	"lodify/internal/sparql/matview"
	"lodify/internal/store"
)

// ---- Album: materialized semantic albums under concurrent ingest ----

// AlbumRow reports the materialized-album experiment: N keyword albums
// registered as incrementally maintained views, read while writers
// keep publishing, against per-request SPARQL evaluation of the same
// albums on the same live store.
type AlbumRow struct {
	Albums        int
	InitialQuads  int
	IngestedQuads int
	// MatReads/FreshReads are sample sizes for the two read paths.
	MatReads   int
	FreshReads int
	MatP50     time.Duration
	MatP99     time.Duration
	FreshP50   time.Duration
	FreshP99   time.Duration
	// SpeedupP50/P99 are fresh / materialized at the same percentile.
	SpeedupP50 float64
	SpeedupP99 float64
	// MaxLag is the largest commit-to-applied maintenance latency any
	// view recorded; DeltaApplies/FullReevals/Skips total the registry's
	// maintenance counters across all views.
	MaxLag       time.Duration
	DeltaApplies int64
	FullReevals  int64
	Skips        int64
}

// albumQuerySrc is the delta-capable keyword-album shape the web
// keyword feed registers (album.ByKeywordSemantic without the UNION
// arm): a DISTINCT BGP plus a CONTAINS keyword filter. Per-request
// evaluation pays a scan over every dc:subject literal; the
// materialized view reads in O(result). The trailing "-" keeps the
// keywords prefix-free (kw12- never matches a kw123- album).
func albumQuerySrc(kw int) string {
	return fmt.Sprintf(`
PREFIX sioct: <http://rdfs.org/sioc/types#>
PREFIX comm: <http://comm.semanticweb.org/core.owl#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
SELECT DISTINCT ?resource ?link WHERE {
  ?resource a sioct:MicroblogPost .
  ?resource comm:image-data ?link .
  ?resource dc:subject ?kw .
  FILTER bif:contains(?kw, "kw%d-") .
}`, kw)
}

// albumPost emits the 4 quads of one synthetic post tagged with one
// album keyword.
func albumPost(i, kw int) []rdf.Quad {
	post := rdf.NewIRI(fmt.Sprintf("http://ex.org/apost/%d", i))
	return []rdf.Quad{
		{S: post, P: rdf.NewIRI(rdf.RDFType), O: rdf.NewIRI("http://rdfs.org/sioc/types#MicroblogPost")},
		{S: post, P: rdf.NewIRI("http://comm.semanticweb.org/core.owl#image-data"), O: rdf.NewIRI(fmt.Sprintf("http://cdn.ex.org/a%d.jpg", i))},
		{S: post, P: rdf.NewIRI("http://purl.org/dc/elements/1.1/subject"), O: rdf.NewLiteral(fmt.Sprintf("kw%d-turin", kw))},
		{S: post, P: rdf.NewIRI("http://purl.org/dc/terms/created"), O: rdf.NewLiteral(fmt.Sprintf("2026-08-%02d", i%28+1))},
	}
}

// pctDur returns the p-quantile (0..1) of the sample, nearest-rank.
func pctDur(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s)-1) + 0.5)
	return s[i]
}

// canonAlbum renders a solution multiset order-independently for the
// materialized-vs-fresh equality check.
func canonAlbum(sols []sparql.Solution) string {
	keys := make([]string, len(sols))
	for i, sol := range sols {
		vars := make([]string, 0, len(sol))
		for v := range sol {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		var b strings.Builder
		for _, v := range vars {
			b.WriteString(v)
			b.WriteByte('=')
			b.WriteString(sol[v].String())
			b.WriteByte(';')
		}
		keys[i] = b.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// AlbumBench registers `albums` keyword views, then measures both read
// paths while a writer keeps bulk-loading new posts (each batch tags a
// narrow keyword range, the bursty-upload shape). After the writer
// stops and the maintenance queue drains, a sample of views is checked
// row-identical against fresh evaluation.
func AlbumBench(albums int, ingestFor time.Duration) (AlbumRow, error) {
	if albums <= 0 {
		albums = 1000
	}
	if ingestFor <= 0 {
		ingestFor = 1500 * time.Millisecond
	}
	st := store.NewSharded(0)

	// Seed: 3 posts per album so every view materializes non-empty.
	bl := st.NewBulkLoader()
	var seed []rdf.Quad
	nextPost := 0
	for a := 0; a < albums; a++ {
		for c := 0; c < 3; c++ {
			seed = append(seed, albumPost(nextPost, a)...)
			nextPost++
		}
	}
	if _, err := bl.AddBatch(seed); err != nil {
		return AlbumRow{}, err
	}
	initial := st.Len()

	// Registration is embarrassingly parallel (each initial evaluation
	// is an independent read) and dominates setup time at 1k views.
	reg := matview.New(st)
	defer reg.Close()
	{
		var (
			regWG  sync.WaitGroup
			regErr atomic.Value
			next   atomic.Int64
		)
		for w := 0; w < 8; w++ {
			regWG.Add(1)
			go func() {
				defer regWG.Done()
				for {
					a := int(next.Add(1)) - 1
					if a >= albums {
						return
					}
					if _, err := reg.Register(fmt.Sprintf("album:%d", a), albumQuerySrc(a)); err != nil {
						regErr.Store(fmt.Errorf("album: register %d: %w", a, err))
						return
					}
				}
			}()
		}
		regWG.Wait()
		if err, _ := regErr.Load().(error); err != nil {
			return AlbumRow{}, err
		}
	}

	// Writer: paced bulk batches (~800 posts/sec); each batch spans 8
	// keywords (the bursty-upload shape). Every new post matches the
	// type/image patterns of every view, so maintenance cost is
	// O(views x new posts); the loop coalesces pending batches when it
	// falls behind and the metered lag is the honest catch-up time at
	// this ingest rate.
	var (
		stop     = make(chan struct{})
		writerWG sync.WaitGroup
		ingested atomic.Int64
		loadErr  atomic.Value
	)
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		wbl := st.NewBulkLoader()
		postID, batchNo := nextPost, 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			var batch []rdf.Quad
			for i := 0; i < 32; i++ {
				kw := (batchNo*8 + i/4) % albums
				batch = append(batch, albumPost(postID, kw)...)
				postID++
			}
			if _, err := wbl.AddBatch(batch); err != nil {
				loadErr.Store(err)
				return
			}
			ingested.Add(int64(len(batch)))
			batchNo++
			time.Sleep(40 * time.Millisecond)
		}
	}()

	eng := sparql.NewEngine(st)
	var matLat, freshLat []time.Duration
	deadline := time.Now().Add(ingestFor)
	for i := 0; time.Now().Before(deadline); i++ {
		a := (i * 31) % albums
		v, ok := reg.Get(fmt.Sprintf("album:%d", a))
		if !ok {
			close(stop)
			writerWG.Wait()
			return AlbumRow{}, fmt.Errorf("album: view %d missing", a)
		}
		t0 := time.Now()
		v.Solutions()
		matLat = append(matLat, time.Since(t0))
		// Fresh evaluation is sampled 1-in-8: it is the slow path being
		// compared against, not the one under measurement pressure.
		if i%8 == 0 {
			t0 = time.Now()
			if _, err := eng.Query(albumQuerySrc(a)); err != nil {
				close(stop)
				writerWG.Wait()
				return AlbumRow{}, err
			}
			freshLat = append(freshLat, time.Since(t0))
		}
	}

	close(stop)
	writerWG.Wait()
	if err, _ := loadErr.Load().(error); err != nil {
		return AlbumRow{}, err
	}
	reg.Sync()

	// Drained registry must agree with fresh evaluation on a sample.
	for a := 0; a < albums; a += max(albums/16, 1) {
		v, _ := reg.Get(fmt.Sprintf("album:%d", a))
		res, err := eng.Query(albumQuerySrc(a))
		if err != nil {
			return AlbumRow{}, err
		}
		if got, want := canonAlbum(v.Solutions()), canonAlbum(res.Solutions); got != want {
			return AlbumRow{}, fmt.Errorf("album: view %d diverged from fresh evaluation after sync", a)
		}
	}

	row := AlbumRow{
		Albums: albums, InitialQuads: initial,
		IngestedQuads: int(ingested.Load()),
		MatReads:      len(matLat), FreshReads: len(freshLat),
		MatP50: pctDur(matLat, 0.50), MatP99: pctDur(matLat, 0.99),
		FreshP50: pctDur(freshLat, 0.50), FreshP99: pctDur(freshLat, 0.99),
	}
	if row.MatP50 > 0 {
		row.SpeedupP50 = row.FreshP50.Seconds() / row.MatP50.Seconds()
	}
	if row.MatP99 > 0 {
		row.SpeedupP99 = row.FreshP99.Seconds() / row.MatP99.Seconds()
	}
	for _, vs := range reg.Stats() {
		if time.Duration(vs.LastLagNs) > row.MaxLag {
			row.MaxLag = time.Duration(vs.LastLagNs)
		}
		row.DeltaApplies += vs.DeltaApplies
		row.FullReevals += vs.FullReevals
		row.Skips += vs.Skips
	}
	return row, nil
}

// AlbumReport renders the two read paths side by side.
func AlbumReport(r AlbumRow) string {
	header := []string{"path", "albums", "reads", "p50", "p99", "speedup p99"}
	body := [][]string{
		{"materialized", itoa(r.Albums), itoa(r.MatReads), ms(r.MatP50), ms(r.MatP99), fmt.Sprintf("%.1fx", r.SpeedupP99)},
		{"per-request", itoa(r.Albums), itoa(r.FreshReads), ms(r.FreshP50), ms(r.FreshP99), "1.0x"},
	}
	s := Table(header, body)
	s += fmt.Sprintf("ingested %d quads during reads; maintenance: %d delta folds, %d re-evals, %d skips, max lag %s\n",
		r.IngestedQuads, r.DeltaApplies, r.FullReevals, r.Skips, ms(r.MaxLag))
	return s
}
