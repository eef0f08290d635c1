package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// hotalloc.go turns the repo's 0 allocs/op invariants (BenchmarkTxnCommit,
// replica batch apply, the DES dispatch loop — DESIGN.md §15) from noisy
// benchmark readings into a deterministic compile-time check.
// A function annotated
//
//	//detlint:hotpath
//
// (last line of its doc comment) must not heap-allocate: detlint drives
// `go build -gcflags=-m=1` over the annotated packages, parses the escape
// analysis ("... escapes to heap", "moved to heap: x"), and hard-fails on
// any site inside the annotated function or its same-package direct
// callees. Three escape hatches keep the check precise instead of noisy:
//
//   - escapes lexically inside a panic(...) argument are exempt — a
//     deterministic crash path never runs in steady state;
//   - a direct callee annotated //detlint:coldpath is excluded wholesale —
//     for helpers that exist only to build terminal diagnostics (the
//     deadlock reconstructor);
//   - a residual cold-branch allocation (slab growth, error returns)
//     carries //detlint:allow hotalloc(reason) on its line, subject to the
//     same staleness audit as every other suppression.
//
// Escape-analysis output is compiler-version-sensitive, so CI pins the
// step to the go.mod toolchain; annotations cover only same-package direct
// callees — a cross-package callee on the hot path carries its own
// annotation (engine.ApplyBatch does, for replication's replayBatch).

// HotAlloc is the rule's registry entry. It has no per-package Run: the
// check shells out to the compiler and is driven by Run when
// Options.HotAlloc is set (detlint -hotalloc).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid heap allocation in //detlint:hotpath functions and their same-package " +
		"direct callees, verified against the compiler's escape analysis (-hotalloc)",
}

const (
	hotpathMarker  = "//detlint:hotpath"
	coldpathMarker = "//detlint:coldpath"
)

// hotRegion is one source span the escape analysis must keep clean.
type hotRegion struct {
	file       string // absolute path
	start, end token.Position
	root       string // the annotated function anchoring the region
	fn         string // the function this region covers
}

func (r *hotRegion) contains(line, col int) bool {
	if line < r.start.Line || line > r.end.Line {
		return false
	}
	if line == r.start.Line && col < r.start.Column {
		return false
	}
	if line == r.end.Line && col > r.end.Column {
		return false
	}
	return true
}

// span is a lexical range used for the panic-argument exemption.
type span struct {
	file       string
	start, end token.Position
}

func (s *span) contains(file string, line, col int) bool {
	if s.file != file {
		return false
	}
	r := hotRegion{start: s.start, end: s.end}
	return r.contains(line, col)
}

// hasMarker reports whether the declaration's doc comment carries the
// given detlint marker on a line of its own.
func hasMarker(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// collectHotRegions resolves every //detlint:hotpath annotation in pkgs to
// the set of source regions to police: the annotated function plus its
// same-package direct callees, minus //detlint:coldpath helpers. It also
// gathers panic-argument spans for the exemption, and returns the set of
// packages that carry at least one region (the ones worth compiling).
func collectHotRegions(pkgs []*Package) (regions []hotRegion, panics []span, hotPkgs []*Package) {
	for _, pkg := range pkgs {
		ix := indexFuncs(pkg)
		byObj := make(map[string]funcDecl, len(ix.decls))
		for _, fd := range ix.decls {
			byObj[fd.obj.FullName()] = fd
		}
		addRegion := func(root string, fd *ast.FuncDecl, name string) {
			regions = append(regions, hotRegion{
				file:  pkg.Fset.Position(fd.Pos()).Filename,
				start: pkg.Fset.Position(fd.Pos()),
				end:   pkg.Fset.Position(fd.End()),
				root:  root,
				fn:    name,
			})
		}
		n := len(regions)
		for _, fd := range ix.decls {
			if !hasMarker(fd.decl, hotpathMarker) {
				continue
			}
			root := fd.obj.Name()
			addRegion(root, fd.decl, fd.obj.Name())
			seen := map[string]bool{fd.obj.FullName(): true}
			for _, callee := range callees(pkg.Info, fd.decl.Body) {
				full := callee.FullName()
				if seen[full] {
					continue
				}
				seen[full] = true
				cd, ok := byObj[full]
				if !ok || hasMarker(cd.decl, coldpathMarker) || hasMarker(cd.decl, hotpathMarker) {
					continue
				}
				addRegion(root, cd.decl, callee.Name())
			}
		}
		if len(regions) == n {
			continue
		}
		hotPkgs = append(hotPkgs, pkg)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					panics = append(panics, span{
						file:  pkg.Fset.Position(call.Pos()).Filename,
						start: pkg.Fset.Position(call.Pos()),
						end:   pkg.Fset.Position(call.End()),
					})
				}
				return true
			})
		}
	}
	return regions, panics, hotPkgs
}

// escapeLineRe matches the compiler's -m diagnostics we treat as heap
// traffic. "does not escape" lines do not match.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// runHotAlloc drives the compiler over every package containing hotpath
// annotations and converts in-region escape sites to hotalloc diagnostics.
// moduleRoot anchors the build; it must be the go.mod directory.
func runHotAlloc(cfg *Config, pkgs []*Package, moduleRoot string) ([]Diagnostic, error) {
	_ = cfg
	if moduleRoot == "" {
		return nil, fmt.Errorf("lint: hotalloc needs a module root")
	}
	regions, panics, hotPkgs := collectHotRegions(pkgs)
	if len(hotPkgs) == 0 {
		return nil, nil
	}

	// No -o: the annotated packages are libraries, so `go build` type-checks
	// and compiles into the build cache without writing artifacts — and the
	// build cache replays -m output verbatim on unchanged packages, making
	// repeat runs cheap.
	args := []string{"build", "-gcflags=-m=1"}
	for _, pkg := range hotPkgs {
		rel, err := filepath.Rel(moduleRoot, pkg.Dir)
		if err != nil {
			return nil, fmt.Errorf("lint: hotalloc: %w", err)
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	lines := strings.Split(string(out), "\n")
	if err != nil {
		// -m output goes to stderr alongside real errors; a failing build
		// is a hard error, with the compiler's own message.
		for _, l := range lines {
			if strings.HasPrefix(l, "#") || escapeLineRe.MatchString(l) || strings.TrimSpace(l) == "" {
				continue
			}
			if strings.Contains(l, ".go:") {
				return nil, fmt.Errorf("lint: hotalloc build failed: %s", strings.TrimSpace(l))
			}
		}
		return nil, fmt.Errorf("lint: hotalloc: go build: %w", err)
	}

	var diags []Diagnostic
	seen := make(map[string]bool)
	for _, l := range lines {
		m := escapeLineRe.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleRoot, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		msg := m[4]
		var reg *hotRegion
		for i := range regions {
			if regions[i].file == file && regions[i].contains(line, col) {
				reg = &regions[i]
				break
			}
		}
		if reg == nil {
			continue
		}
		exempt := false
		for i := range panics {
			if panics[i].contains(file, line, col) {
				exempt = true
				break
			}
		}
		if exempt {
			continue
		}
		key := fmt.Sprintf("%s:%d:%d:%s", file, line, col, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		where := reg.fn
		if reg.fn != reg.root {
			where = reg.fn + " (direct callee of //detlint:hotpath " + reg.root + ")"
		} else {
			where += " (//detlint:hotpath)"
		}
		diags = append(diags, Diagnostic{
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Analyzer: HotAlloc.Name,
			Message:  fmt.Sprintf("heap allocation on the hot path: %s in %s", msg, where),
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	return diags, nil
}
