package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// smokeContents keeps the in-process corpus small enough for the whole
// file to run in a few seconds.
const smokeContents = 200

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestSameSeedSameSequence(t *testing.T) {
	c := newCorpus(smokeContents)
	for _, w := range workloads {
		a := newPlan(c, w, 1, 40).measured
		b := newPlan(c, w, 1, 40).measured
		other := newPlan(c, w, 2, 40).measured
		if a.hash() != b.hash() {
			t.Errorf("%s: seed 1 gave sequences %s and %s", w.name, a.hash(), b.hash())
		}
		if a.hash() == other.hash() {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
		if a.actions() != 40 {
			t.Errorf("%s: %d actions, want 40", w.name, a.actions())
		}
	}
}

// TestWorkloadsAgainstInProcessServer runs every workload's 20 first
// actions end to end and traced, and holds the emitted metric names to
// BENCHMARK.json.
func TestWorkloadsAgainstInProcessServer(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(doc.Workloads), len(workloads))
	}
	wantE2E := map[string]string{}
	for _, m := range doc.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := map[string]string{}
	for _, m := range doc.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	c := newCorpus(smokeContents)
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness's is %q", i, doc.Workloads[i].Name, w.name)
		}
		start := time.Now()
		in, err := newInproc(newTracer(start), smokeContents)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(in.srv)
		target := &target{base: ts.URL, pid: os.Getpid(), setupS: time.Since(start).Seconds()}
		p := newPlan(c, w, 1, 20)
		p.warmup = p.warmup.prefix(10)
		hr, err := runHTTP(target, c, p, p.measured)
		ts.Close()
		in.srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, problem := range hr.problems {
			t.Errorf("%s: %s", w.name, problem)
		}

		sameNames(t, w.name+" end-to-end", endToEndMetrics(hr, target.setupS), wantE2E, valid)

		layer := map[string]value{}
		clientMetrics(hr, layer)
		serverMetrics(hr, layer)
		rr, err := replay(c, p, p.measured)
		if err != nil {
			t.Fatalf("%s: replay: %v", w.name, err)
		}
		for _, problem := range rr.problems {
			t.Errorf("%s: %s", w.name, problem)
		}
		for name, v := range rr.metrics {
			layer[name] = v
		}
		// A workload leaves the classes it never requests unset; the
		// command fills them with 0 from the same list.
		for _, d := range perLayer() {
			if _, ok := layer[d.name]; !ok {
				layer[d.name] = value{0, d.unit}
			}
		}
		sameNames(t, w.name+" per-layer", layer, wantLayer, valid)
		if len(rr.spans) == 0 {
			t.Errorf("%s: the replay recorded no spans", w.name)
		}
	}
}

func sameNames(t *testing.T, what string, got map[string]value, want map[string]string, valid *regexp.Regexp) {
	t.Helper()
	var names []string
	for name, v := range got {
		names = append(names, name)
		if !valid.MatchString(name) {
			t.Errorf("%s: metric name %q is outside [A-Za-z0-9_.-]", what, name)
		}
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		} else if unit != v.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, v.Unit, unit)
		}
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d (emitted: %v)", what, len(got), len(want), names)
	}
}
