package analysis

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const moduleRoot = "../.."

// want markers sit on the line the diagnostic is expected on:
//
//	bad()          // want "substring of the message"
//	worse()        // want "first" "second"
var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(".*")\s*$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

func TestRawIRI(t *testing.T) {
	runFixtureTest(t, []*Analyzer{RawIRI}, "rawiri", "lodify/internal/rawiritest")
}

func TestLockSafe(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LockSafe}, "locksafe", "lodify/internal/locktest")
}

func TestCtxFlow(t *testing.T) {
	runFixtureTest(t, []*Analyzer{CtxFlow}, "ctxflow", "lodify/internal/resolver/ctxfix")
}

func TestErrDrop(t *testing.T) {
	runFixtureTest(t, []*Analyzer{ErrDrop}, "errdrop", "lodify/cmd/fixturecli")
}

func TestBufEscape(t *testing.T) {
	runFixtureTest(t, []*Analyzer{BufEscape}, "bufescape", "lodify/internal/ingestfix")
}

func TestLeaseHold(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LeaseHold}, "leasehold", "lodify/internal/store/leasefix")
}

func TestLocalID(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LocalID}, "localid", "lodify/internal/sparql/localfix")
}

func TestLockOrderFixture(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LockOrder}, "lockorder", "lodify/internal/lockorderfix")
}

func TestGoLeakFixture(t *testing.T) {
	runFixtureTest(t, []*Analyzer{GoLeak}, "goleak", "lodify/internal/goleakfix")
}

// TestAtomicMix covers mixed atomic/plain access detection: struct and
// package-level counters with atomic sites, plain accesses with and
// without the owning lock, accessor helpers judged at their call
// sites, and the typed-atomic / never-atomic negatives.
func TestAtomicMix(t *testing.T) {
	runFixtureTest(t, []*Analyzer{AtomicMix}, "atomicmix", "lodify/internal/obs/mixfix")
}

// TestHookReent covers commit-hook reentrancy against the real store
// package: lock acquisition and store mutation in literal and
// method-value hooks, the goroutine handoff shape, and the nolock
// reviewed exception.
func TestHookReent(t *testing.T) {
	runFixtureTest(t, []*Analyzer{HookReent}, "hookreent", "lodify/internal/store/hookfix")
}

// TestStatsHold covers the per-shard stats leasehold: unlocked and
// RLock-only mutations, derived locals, deferred unexported helpers,
// the sticky lock-acquiring callee shape, delete, and the compliant
// locked/local-merge twins.
func TestStatsHold(t *testing.T) {
	runFixtureTest(t, []*Analyzer{StatsHold}, "statshold", "lodify/internal/store/statsfix")
}

// TestInterproc covers the summary index through generics and method
// values: generic helpers that block or alias (one summary at the
// origin, applied per instantiation), method values stashed vs run,
// and compliant Clone/Release twins for each.
func TestInterproc(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LeaseHold, BufEscape}, "interproc", "lodify/internal/store/interprocfix")
}

// TestGenerics runs the path-independent and resolver-scoped analyzers
// over type-parameterized code: generic receivers and instantiation
// expressions must neither panic nor produce false positives.
func TestGenerics(t *testing.T) {
	runFixtureTest(t, []*Analyzer{LockSafe, CtxFlow}, "generics", "lodify/internal/resolver/generictest")
}

// runFixtureTest loads testdata/<fixture> under importPath, runs the
// analyzers, and checks their diagnostics against the // want markers:
// every diagnostic must be expected, every expectation must fire.
func runFixtureTest(t *testing.T, as []*Analyzer, fixture, importPath string) {
	t.Helper()
	pkg, err := LoadFixture(moduleRoot, filepath.Join("testdata", fixture), importPath)
	if err != nil {
		t.Fatalf("LoadFixture: %v", err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s holds no Go files", fixture)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture must type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}

	type mark struct {
		line int
		want string
	}
	var wants []mark
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
					wants = append(wants, mark{line: line, want: q[1]})
				}
			}
		}
	}
	if len(wants) < 2 {
		t.Fatalf("fixture %s seeds %d violations; need at least 2", fixture, len(wants))
	}

	diags := Run([]*Package{pkg}, as)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		hit := false
		for i, w := range wants {
			if !matched[i] && w.line == d.Line && strings.Contains(d.Message, w.want) {
				matched[i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.File), d.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic on line %d: want message containing %q", w.line, w.want)
		}
	}
}

// TestLoadRepo loads a real module package and checks it arrives
// type-clean with syntax and type info populated.
func TestLoadRepo(t *testing.T) {
	pkgs, err := Load(LoadConfig{ModuleRoot: moduleRoot}, "./internal/rdf")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load matched %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "lodify/internal/rdf" {
		t.Errorf("Path = %q, want lodify/internal/rdf", pkg.Path)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Errorf("type errors: %v", pkg.TypeErrors)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil || pkg.Info == nil {
		t.Errorf("incomplete package: files=%d types=%v", len(pkg.Files), pkg.Types)
	}
}

// TestPackageDirsSkipsNestedModules: ./... stops at a directory with
// its own go.mod (bench/ here), like the go tool's pattern does.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a.go", "sub/b.go", "nested/go.mod", "nested/c.go", "nested/deep/d.go"} {
		p := filepath.Join(root, f)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{root, filepath.Join(root, "sub")}; !reflect.DeepEqual(dirs, want) {
		t.Fatalf("packageDirs = %v, want %v", dirs, want)
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI log
// and editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "rawiri", File: "x.go", Line: 3, Column: 7, Message: "m"}
	if got, want := d.String(), "x.go:3:7: [rawiri] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
