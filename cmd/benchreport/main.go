// Command benchreport reproduces the paper's tables: experiments
// E1-E10 of DESIGN.md plus the §2.3 inference extension, as
// EXPERIMENTS.md records them. Individual experiments can be selected
// with -exp; -json switches the output to a machine-readable document
// (one JSON object on stdout, prose stays on stderr). Performance is
// not measured here: bench/ is the only performance ledger.
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
	"io"
	"log"
	"os"
	"strings"
	"time"

	"lodify/internal/experiments"
	"lodify/internal/workload"
)

// experiment is one selectable table: run returns the rows for the
// JSON document and the rendered table for the text report.
type experiment struct {
	id, title string
	run       func(env *experiments.Env) (rows any, report string, err error)
}

// suite lists the experiments in report order; its ids are the only
// values -exp accepts besides "all".
var suite = []experiment{
	{"e1", "Fig. 1 annotation pipeline: Jaro-Winkler threshold sweep", func(env *experiments.Env) (any, string, error) {
		rows := env.E1ThresholdSweep([]float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95})
		return rows, experiments.E1Report(rows), nil
	}},
	{"e2", "§2.1 D2R dump-rdf scaling", func(*experiments.Env) (any, string, error) {
		rows, err := experiments.E2DumpScale([]int{100, 1000, 5000, 20000})
		return rows, experiments.E2Report(rows), err
	}},
	{"e3", "§2.3 virtual albums (the paper's three queries)", func(env *experiments.Env) (any, string, error) {
		rows, err := env.E3Albums()
		return rows, experiments.E3Report(rows), err
	}},
	{"e4", "Figs. 2-3 incremental AJAX search (typing 'Turin')", func(env *experiments.Env) (any, string, error) {
		rows, err := env.E4IncrementalSearch("Turin")
		return rows, experiments.E4Report(rows), err
	}},
	{"e5", "§4.1 'About' linked-data mashup (four-arm UNION)", func(env *experiments.Env) (any, string, error) {
		row, err := env.E5AboutMashup()
		return row, experiments.E5Report(row), err
	}},
	{"e6", "§1.1 triple-tag navigation (baseline)", func(env *experiments.Env) (any, string, error) {
		rows := env.E6TagAlbums()
		return rows, experiments.E6Report(rows), nil
	}},
	{"e7", "keyword vs semantic retrieval (the paper's headline claim)", func(env *experiments.Env) (any, string, error) {
		rows, err := experiments.E7KeywordVsSemantic([]int{100, 300, 1000}, env.Corpus.Spec.Seed)
		return rows, experiments.E7Report(rows), err
	}},
	{"e8", "§2.2.1 POI tag -> DBpedia resolution", func(env *experiments.Env) (any, string, error) {
		rows := env.E8POIResolution()
		return rows, experiments.E8Report(rows), nil
	}},
	{"e9", "§6 federated push (publish -> PuSH delivery)", func(*experiments.Env) (any, string, error) {
		row, err := experiments.E9FederationPush(20)
		return row, experiments.E9Report(row), err
	}},
	{"e10", "§2.2.2 resolver & graph-priority ablation", func(env *experiments.Env) (any, string, error) {
		rows := env.E10Ablation()
		return rows, experiments.E10Report(rows), nil
	}},
	{"infer", "§2.3 RDFS inference capabilities (extension)", func(env *experiments.Env) (any, string, error) {
		report := experiments.InferReport(env)
		return map[string]string{"report": report}, report, nil
	}},
}

// selectExperiments resolves a -exp value against the suite. An id
// the suite does not know is a usage error naming the valid ones.
func selectExperiments(expFlag string) ([]experiment, error) {
	ids := make([]string, len(suite))
	known := map[string]bool{"all": true}
	for i, ex := range suite {
		ids[i] = ex.id
		known[ex.id] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(expFlag, ",") {
		id := strings.TrimSpace(strings.ToLower(e))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: %s, or all", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var sel []experiment
	for _, ex := range suite {
		if want["all"] || want[ex.id] {
			sel = append(sel, ex)
		}
	}
	return sel, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ExitOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (e1..e10, infer) or 'all'")
	contents := fs.Int("contents", 300, "corpus size for the shared environment")
	users := fs.Int("users", 20, "corpus users")
	seed := fs.Int64("seed", 7, "corpus seed")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON document on stdout instead of tables")
	label := fs.String("label", "local", "run label recorded in the JSON document")
	if err := fs.Parse(args); err != nil {
		return err
	}
	selected, err := selectExperiments(*expFlag)
	if err != nil {
		return err
	}

	start := time.Now()
	log.Printf("building environment (%d users, %d contents, seed %d)...", *users, *contents, *seed)
	env, err := experiments.NewEnv(workload.Spec{
		Users: *users, Contents: *contents, FriendsPerUser: 4, RatedFraction: 0.7, Seed: *seed,
	})
	if err != nil {
		return fmt.Errorf("environment: %w", err)
	}
	log.Printf("environment ready in %v (store: %d triples)\n", time.Since(start).Round(time.Millisecond), env.Platform.Store.Len())

	// In JSON mode the tables are suppressed and each experiment's rows
	// collect here instead; durations marshal as nanosecond integers.
	results := map[string]any{}
	for _, ex := range selected {
		rows, report, err := ex.run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.id, err)
		}
		if *jsonOut {
			results[ex.id] = rows
		} else if _, err := fmt.Fprintf(stdout, "\n== %s — %s ==\n\n%s", strings.ToUpper(ex.id), ex.title, report); err != nil {
			return err
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"label":       *label,
			"contents":    *contents,
			"users":       *users,
			"seed":        *seed,
			"experiments": results,
			"totalNs":     time.Since(start).Nanoseconds(),
		})
	}
	_, err = fmt.Fprintf(stdout, "\ntotal: %v\n", time.Since(start).Round(time.Millisecond))
	return err
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
