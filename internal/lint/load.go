package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader parses and type-checks module packages without any tooling
// dependency: module-local imports are resolved by walking the module tree
// and standard-library imports are type-checked from GOROOT source via the
// stdlib source importer. The module has no third-party dependencies, so
// these two roots cover every import.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// FindModuleRoot walks up from the working directory to the directory
// that holds go.mod.
func FindModuleRoot() (string, error) {
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
			return "", fmt.Errorf("lint: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// NewLoader returns a loader rooted at the module directory. The module
// path is read from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// Load resolves the given patterns (module-relative, "./..." wildcards
// supported, e.g. "./...", "./internal/...", "./cmd/detlint") and returns
// the matched packages, parsed and type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" || pat == "." {
			pat = "..."
		}
		if sub, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimSuffix(sub, "/")))
			if err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					dirs[path] = true
				}
				return nil
			}); err != nil {
				return nil, fmt.Errorf("lint: walking %s: %w", pat, err)
			}
			continue
		}
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(pat))
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		dirs[dir] = true
	}

	if len(dirs) == 0 {
		// A pattern that matches nothing must be loud: "CLEAN (0 packages)"
		// from a typo'd path is a green CI step that checked nothing.
		return nil, fmt.Errorf("lint: patterns %v matched no packages under %s", patterns, l.ModuleRoot)
	}

	var out []*Package
	for dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := l.ModulePath
		if rel != "." {
			pkgPath = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.loadPackage(pkgPath, dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// LoadDir parses and type-checks a single directory outside the module
// layout under a synthetic import path — fixture packages in testdata.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	return l.loadPackage(pkgPath, dir)
}

// Loaded returns every module-local package this loader has parsed so far —
// the requested packages plus their in-module dependencies — sorted by
// import path. This is the universe the interprocedural summaries fold
// over: analyzing ./internal/engine still sees hazards grounded three
// helpers deep in ./internal/storage.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

func (l *Loader) loadPackage(pkgPath, dir string) (*Package, error) {
	if p, ok := l.pkgs[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", pkgPath, err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.Fset.Position(files[i].Pos()).Filename < l.Fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	p := &Package{PkgPath: pkgPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[pkgPath] = p
	return p, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages load
// recursively from the module tree; everything else is standard library,
// type-checked from GOROOT source.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	// Already-loaded packages resolve by their registered path first — this
	// is how fixture packages loaded via LoadDir under synthetic import
	// paths can import one another (the cross-package chain fixtures).
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		p, err := l.loadPackage(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
