package store

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"lodify/internal/rdf"
)

// ingestCorpusQuads returns the bench corpus size: the
// LODIFY_INGEST_QUADS environment variable when set (the PR 4 record
// in EXPERIMENTS.md used 500000), otherwise a default that keeps
// `make bench-smoke` fast.
func ingestCorpusQuads() int {
	if s := os.Getenv("LODIFY_INGEST_QUADS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 50000
}

// genIngestCorpus writes a deterministic UGC-shaped N-Quads document:
// typed posts with makers, integer ratings, shared-token titles, a
// sprinkling of geo:geometry WKT literals, language-tagged comments,
// named graphs, and exact duplicate lines (the D2R dump re-emits
// shared rows).
func genIngestCorpus(n int) string {
	r := rand.New(rand.NewSource(42))
	var sb strings.Builder
	sb.Grow(n * 110)
	users := n/50 + 1
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("<http://beta.teamlife.it/user/%d>", r.Intn(users))
		pic := fmt.Sprintf("<http://beta.teamlife.it/picture/%d>", i/5)
		switch i % 5 {
		case 0:
			sb.WriteString(pic + " <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://rdfs.org/sioc/types#ImageGallery> .\n")
		case 1:
			sb.WriteString(pic + " <http://xmlns.com/foaf/0.1/maker> " + user + " .\n")
		case 2:
			sb.WriteString(pic + " <http://purl.org/stuff/rev#rating> \"" +
				strconv.Itoa(r.Intn(5)+1) + "\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n")
		case 3:
			sb.WriteString(pic + " <http://purl.org/dc/elements/1.1/title> \"photo of the Mole Antonelliana landmark " +
				strconv.Itoa(i) + "\"@it <http://beta.teamlife.it/graph/ugc> .\n")
		case 4:
			if i%25 == 4 {
				sb.WriteString(pic + " <http://www.w3.org/2003/01/geo/wgs84_pos#geometry> \"POINT(" +
					fmt.Sprintf("%.4f %.4f", 7.5+r.Float64(), 44.9+r.Float64()) + ")\" .\n")
			} else {
				// Duplicate an earlier shape: bulk dedup must not miscount.
				sb.WriteString(pic + " <http://xmlns.com/foaf/0.1/maker> " + user + " .\n")
			}
		}
	}
	return sb.String()
}

// loadSequential is the pre-bulk reference loader: one ReadQuad and
// one locked Store.Add per line. The equivalence tests compare the
// bulk path against it.
func loadSequential(st *Store, r io.Reader) (int, error) {
	rd := rdf.NewNTriplesReader(r)
	n := 0
	for {
		q, err := rd.ReadQuad()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		added, err := st.Add(q)
		if err != nil {
			return n, err
		}
		if added {
			n++
		}
	}
}

func BenchmarkLoadNQuadsSequential(b *testing.B) {
	doc := genIngestCorpus(ingestCorpusQuads())
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if _, err := loadSequential(st, strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadNQuadsBulk(b *testing.B) {
	doc := genIngestCorpus(ingestCorpusQuads())
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		if _, err := st.LoadNQuads(strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDumpNQuads(b *testing.B) {
	st := New()
	if _, err := st.LoadNQuads(strings.NewReader(genIngestCorpus(ingestCorpusQuads()))); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.DumpNQuads(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
