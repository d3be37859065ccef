// Command bench is the repository's benchmark: it builds cmd/lodify,
// boots it as a child process, drives one of four fixed request
// sequences at it over HTTP from two closed-loop connections and
// reports six end-to-end metrics; with -trace 1 it reports per-layer
// metrics instead, from the driver, the server's /metrics and a traced
// in-process replay. See README.md.
//
//	go run -C bench . -workload browse            # one workload, JSON result on the last line
//	go run -C bench . -workload browse -trace 1   # its per-layer metrics
//	go run -C bench . -repeat 5                   # all four, five times: medians and spreads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupBoots is how many times an end-to-end run boots the server;
// setup_s is the median. The last boot serves the run.
const setupBoots = 2

// A traced run measures half the actions over HTTP (the driver's and
// /metrics' per-layer numbers need no more) and replays the first
// tenth, at most replayCap actions, in-process: every replayed request
// runs several times over, and every replayed upload waits ~50 ms for
// the fold of all views.
const (
	tracedHTTPShare   = 0.5
	tracedReplayShare = 0.1
	replayCap         = 320
)

// result is the document one run leaves in out/result-<workload>.json.
type result struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Classes   []classStat      `json:"classes"`
	Problems  []string         `json:"problems,omitempty"`
	Warnings  []string         `json:"warnings,omitempty"`
	Env       env              `json:"env"`
}

// env records where and on what the numbers were taken.
type env struct {
	CPUModel   string         `json:"cpuModel"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"goVersion"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Clients    int            `json:"clients"`
	Actions    map[string]int `json:"actions"`
	SeqHash    string         `json:"sequenceHash"`
}

func newEnv(root string, seed int64, seconds int) env {
	e := env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: seed, Seconds: seconds, Clients: clients}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" stays.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// actionsFor scales a workload's count to the run length.
func actionsFor(w workloadSpec, seconds int) int {
	return max(w.actions*seconds/baseSeconds, clients)
}

// bench holds what every run of one invocation shares.
type bench struct {
	root, out string
	bin       string
	corpus    *corpus
	seed      int64
	seconds   int
	env       env       // but for the per-run fields
	log       io.Writer // server output
}

// run measures one workload. With trace it reports the per-layer
// metrics, otherwise the end-to-end ones.
func (b *bench) run(w workloadSpec, trace bool) (*result, error) {
	actions := actionsFor(w, b.seconds)
	p := newPlan(b.corpus, w, b.seed, actions)
	res := &result{Workload: w.name, Trace: trace, Metrics: map[string]value{}, Env: b.env}
	res.Env.Actions = map[string]int{"warmup": warmupActions, "measured": actions}
	res.Env.SeqHash = p.measured.hash()

	measured := p.measured
	boots := setupBoots
	if trace {
		measured = p.measured.prefix(int(float64(actions) * tracedHTTPShare))
		boots = 1
	}
	var setups []float64
	var t *target
	for i := 0; i < boots; i++ {
		if t != nil {
			t.stop()
		}
		var err error
		if t, err = bootServer(b.bin, b.log); err != nil {
			return nil, err
		}
		setups = append(setups, t.setupS)
	}
	hr, err := runHTTP(t, b.corpus, p, measured)
	t.stop()
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = len(hr.samples), hr.failedCount()
	res.Classes = classStats(hr, (*op).class)
	res.Problems = hr.problems
	for _, c := range res.Classes {
		if c.thin() {
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"class %s: %d samples, %.1f%% within 5%% of p50, %.1f%% of p95: kept in typ_ms/tail_ms at its request weight",
				c.Class, c.Count, c.Near50*100, c.Near95*100))
		}
	}

	if !trace {
		res.Metrics = endToEndMetrics(hr, median(setups))
	} else {
		for _, d := range perLayer() {
			res.Metrics[d.name] = value{0, d.unit}
		}
		clientMetrics(hr, res.Metrics)
		serverMetrics(hr, res.Metrics)
		for _, series := range hr.gone {
			res.Warnings = append(res.Warnings, "server exports no "+series+": the metric built on it reads 0")
		}
		seq := measured.prefix(min(int(float64(actions)*tracedReplayShare), replayCap))
		rr, err := replay(b.corpus, p, seq)
		if err != nil {
			return nil, err
		}
		for name, v := range rr.metrics {
			res.Metrics[name] = v
		}
		res.Problems = append(res.Problems, rr.problems...)
		if !w.writes() {
			// The replay saw the corpus the server had, so it must return
			// the rows the server returned. Keyword albums are held to
			// that with a warning only: their size differs between boots
			// of the same corpus (seen on "musée": 135 rows, or 27 in
			// roughly one boot in four), a server defect this check
			// found and a later issue owns.
			var warned, failed bool
			for i, s := range rr.samples {
				if s.rows == hr.samples[i].rows {
					continue
				}
				o := &seq.ops[i]
				msg := fmt.Sprintf("%s: %d rows over HTTP, %d replayed in-process", o.URL, hr.samples[i].rows, s.rows)
				if album := o.Route == routeFeed || o.Shape == "keyword-union"; album && !warned {
					res.Warnings, warned = append(res.Warnings, msg), true
				} else if !album && !failed {
					res.Problems, failed = append(res.Problems, msg), true
				}
			}
		}
		if rr.coverage > 0 {
			fmt.Printf("%s: mirrored handlers take %.0f%% of the time of the handlers they mirror\n", w.name, rr.coverage*100)
		}
		if err := writeSpans(filepath.Join(b.out, "trace-"+w.name+".json"), w.name, rr.spans); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, b.save(res)
}

func (b *bench) save(res *result) error {
	name := "result-" + res.Workload + ".json"
	if res.Trace {
		name = "result-" + res.Workload + "-traced.json"
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.out, name), append(raw, '\n'), 0o644)
}

// print lists every metric of the run by name and unit, then the
// request classes behind typ_ms and tail_ms.
func (res *result) print() {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-8s %-40s %14.4f %s\n", res.Workload, name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, c := range res.Classes {
		fmt.Printf("%-8s class %-20s n=%-6d failed=%-3d p50=%9.3f ms (%4.1f%% near)  p95=%9.3f ms (%4.1f%% near)\n",
			res.Workload, c.Class, c.Count, c.Failed, c.P50Ms, c.Near50*100, c.P95Ms, c.Near95*100)
	}
	for _, w := range res.Warnings {
		fmt.Printf("%-8s warning: %s\n", res.Workload, w)
	}
	for _, p := range res.Problems {
		fmt.Printf("%-8s INCORRECT: %s\n", res.Workload, p)
	}
}

// lastLine is the one-line result the driver reads.
func (res *result) lastLine() string {
	raw, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	return string(raw)
}

func fatal(err error) {
	killLive()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "browse, upload, mixed or adhoc (default: all four, as a table)")
	seed := flag.Int64("seed", 1, "seed of the request sequences; the server only ever sees the requests")
	seconds := flag.Int("seconds", baseSeconds, "run length the fixed action counts are scaled to")
	trace := flag.Int("trace", 0, "1: report per-layer metrics (driver, /metrics, traced in-process replay) instead of end-to-end ones")
	repeat := flag.Int("repeat", 1, "without -workload: runs per workload; medians and (max-min)/median are printed")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	// go run -C bench leaves the harness in bench/; the module it
	// measures is the directory above.
	root, err := filepath.Abs("..")
	if err != nil {
		fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "lodify", "main.go")); err != nil {
		fatal(fmt.Errorf("run from the bench directory of a lodify checkout (go run -C bench .): %w", err))
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fatal(fmt.Errorf("interrupted"))
	}()

	b := &bench{root: root, out: filepath.Join(root, "bench", "out"), seed: *seed, seconds: *seconds}
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		fatal(err)
	}
	logf, err := os.Create(filepath.Join(b.out, "server.log"))
	if err != nil {
		fatal(err)
	}
	defer logf.Close()
	b.log = logf
	if b.bin, err = buildServer(root, b.out); err != nil {
		fatal(err)
	}
	b.corpus = newCorpus(serverContents)
	b.env = newEnv(root, *seed, *seconds)

	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := b.run(w, *trace == 1)
		if err != nil {
			fatal(err)
		}
		res.print()
		fmt.Println(res.lastLine())
		return
	}

	// All four workloads, -repeat times: the noise table.
	runs := map[string]map[string][]float64{} // workload -> metric -> values
	correct := true
	start := time.Now()
	for i := 0; i < *repeat; i++ {
		for _, w := range workloads {
			res, err := b.run(w, *trace == 1)
			if err != nil {
				fatal(err)
			}
			if i == 0 {
				res.print()
			}
			correct = correct && res.Correct
			if runs[w.name] == nil {
				runs[w.name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				runs[w.name][name] = append(runs[w.name][name], v.Value)
			}
		}
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer()
	}
	fmt.Printf("\n%d runs per workload, seed %d, %d s, %s: median (spread = (max-min)/median)\n\n", *repeat, *seed, *seconds, time.Since(start).Round(time.Second))
	fmt.Printf("| metric | unit |")
	for _, w := range workloads {
		fmt.Printf(" %s |", w.name)
	}
	fmt.Printf("\n|---|---|%s\n", strings.Repeat("---|", len(workloads)))
	for _, d := range defs {
		fmt.Printf("| `%s` | %s |", d.name, d.unit)
		for _, w := range workloads {
			v := runs[w.name][d.name]
			fmt.Printf(" %.4g (%.1f%%) |", median(v), spread(v)*100)
		}
		fmt.Println()
	}
	if !correct {
		fatal(fmt.Errorf("an output check failed; see the INCORRECT lines above"))
	}
}
