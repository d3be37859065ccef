package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// An id the suite does not know is an error that names the valid ones,
// returned before any environment is built.
func TestUnknownExperimentIsUsageError(t *testing.T) {
	for _, exp := range []string{"sparql", "e1,slo", "e11", ""} {
		var out bytes.Buffer
		err := run([]string{"-exp", exp}, &out)
		if err == nil {
			t.Fatalf("-exp %q: no error", exp)
		}
		for _, ex := range suite {
			if !strings.Contains(err.Error(), ex.id) {
				t.Fatalf("-exp %q: error %q does not list %s", exp, err, ex.id)
			}
		}
		if out.Len() != 0 {
			t.Fatalf("-exp %q printed %q", exp, out.String())
		}
	}
}

// The -json document keeps its pinned top-level keys and holds exactly
// the selected experiments.
func TestJSONDocumentKeysPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "e1", "-json", "-label", "t", "-contents", "40", "-users", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("%v in %s", err, out.String())
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "contents,experiments,label,seed,totalNs,users"; got != want {
		t.Fatalf("document keys = %s, want %s", got, want)
	}
	var exps map[string][]map[string]any
	if err := json.Unmarshal(doc["experiments"], &exps); err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || len(exps["e1"]) != 6 {
		t.Fatalf("experiments = %v, want e1 with its six threshold rows", exps)
	}
}

// "all" selects the whole suite in report order; ids are
// case-insensitive and may repeat.
func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(suite) {
		t.Fatalf("all -> %d experiments, err %v", len(all), err)
	}
	sel, err := selectExperiments("INFER, e7,e7")
	if err != nil || len(sel) != 2 || sel[0].id != "e7" || sel[1].id != "infer" {
		t.Fatalf("sel = %+v, err %v", sel, err)
	}
}
