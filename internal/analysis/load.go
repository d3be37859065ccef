package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and type-checked module package.
type Package struct {
	// Path is the import path.
	Path string
	// Dir is the package directory on disk.
	Dir  string
	Fset *token.FileSet
	// Files is the parsed syntax, in file-name order.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-checking problems; analyzers still run
	// on the partial information.
	TypeErrors []error
}

// LoadConfig controls Load.
type LoadConfig struct {
	// ModuleRoot is the directory holding go.mod. Empty means: walk
	// upward from the working directory.
	ModuleRoot string
	// IncludeTests adds _test.go files of the matched packages.
	IncludeTests bool
}

// Load finds, parses and type-checks the module packages matched by
// patterns ("./...", "./internal/...", or plain package directories).
// It is the stdlib-only stand-in for golang.org/x/tools/go/packages:
// package enumeration walks the module tree, and type checking uses
// the go/importer source importer anchored at the module root.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	root := cfg.ModuleRoot
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			return nil, err
		}
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var selected []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if matchAny(patterns, filepath.ToSlash(rel)) {
			selected = append(selected, dir)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}

	// The source importer resolves module-internal import paths by
	// invoking the go command from Context.Dir; anchor it at the
	// module root so lodlint works from any working directory.
	buildCtx := build.Default
	buildCtx.Dir = root
	restore := build.Default
	build.Default = buildCtx
	defer func() { build.Default = restore }()

	fset := token.NewFileSet()
	loader := &moduleLoader{
		fset:     fset,
		root:     root,
		modPath:  modPath,
		buildCtx: &buildCtx,
		tests:    cfg.IncludeTests,
		cache:    map[string]*Package{},
	}
	loader.base = importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, dir := range selected {
		pkg, err := loader.load(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadFixture parses and type-checks a single directory of Go files
// under a caller-chosen import path. It is the fixture-loading hook
// for analyzer tests: testdata packages can impersonate rule-scoped
// paths such as "lodify/cmd/x". moduleRoot anchors resolution of
// lodify/... imports inside the fixtures.
func LoadFixture(moduleRoot, dir, importPath string) (*Package, error) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	buildCtx := build.Default
	buildCtx.Dir = root
	restore := build.Default
	build.Default = buildCtx
	defer func() { build.Default = restore }()

	fset := token.NewFileSet()
	loader := &moduleLoader{
		fset:     fset,
		root:     root,
		modPath:  "lodify",
		buildCtx: &buildCtx,
		cache:    map[string]*Package{},
	}
	loader.base = importer.ForCompiler(fset, "source", nil)
	return loader.check(dir, importPath, true)
}

type moduleLoader struct {
	fset     *token.FileSet
	root     string
	modPath  string
	buildCtx *build.Context
	tests    bool
	base     types.Importer
	cache    map[string]*Package
	loading  map[string]bool
}

// Import implements types.Importer: module-internal packages resolve
// through the loader (sharing one type-checked instance per path),
// everything else through the source importer.
func (l *moduleLoader) Import(p string) (*types.Package, error) {
	if p == l.modPath || strings.HasPrefix(p, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(p, l.modPath), "/")
		pkg, err := l.check(filepath.Join(l.root, filepath.FromSlash(rel)), p, l.tests)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("analysis: no Go files for %s", p)
		}
		return pkg.Types, nil
	}
	return l.base.Import(p)
}

// load type-checks the package in dir under its module import path.
func (l *moduleLoader) load(dir string) (*Package, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	ip := l.modPath
	if rel != "." {
		ip = path.Join(l.modPath, filepath.ToSlash(rel))
	}
	return l.check(dir, ip, l.tests)
}

func (l *moduleLoader) check(dir, importPath string, includeTests bool) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading == nil {
		l.loading = map[string]bool{}
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFilesIn(l.buildCtx, dir, includeTests)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	// External test packages (package foo_test) cannot be mixed into
	// the main package; keep only the dominant (non-_test-suffixed)
	// package name.
	files = dropExternalTestFiles(files)

	pkg := &Package{Path: importPath, Dir: dir, Fset: l.fset}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	pkg.Files = files
	pkg.Types = tpkg
	pkg.Info = info
	l.cache[importPath] = pkg
	return pkg, nil
}

// goFilesIn lists the buildable .go files of dir, honoring build
// constraints via the build context.
func goFilesIn(ctx *build.Context, dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := ctx.MatchFile(dir, name)
		if err != nil || !match {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func dropExternalTestFiles(files []*ast.File) []*ast.File {
	base := ""
	for _, f := range files {
		name := f.Name.Name
		if !strings.HasSuffix(name, "_test") {
			base = name
			break
		}
	}
	if base == "" {
		return files
	}
	var out []*ast.File
	for _, f := range files {
		if f.Name.Name == base {
			out = append(out, f)
		}
	}
	return out
}

// packageDirs returns every directory under root holding Go files,
// skipping testdata, vendor, hidden/underscore directories and nested
// modules (a directory with its own go.mod is outside ./..., as it is
// for the go tool).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != root {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				dirs = append(dirs, p)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// matchAny implements the supported pattern forms against a
// slash-separated module-relative directory ("." for the root).
func matchAny(patterns []string, rel string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		switch {
		case pat == "...":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case pat == rel:
			return true
		}
	}
	return false
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(rest); err == nil {
				rest = unq
			}
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
