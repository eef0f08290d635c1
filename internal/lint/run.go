package lint

// Options configures one detlint run beyond the analyzer list.
type Options struct {
	// Universe is the full set of loaded module-local packages (analyzed
	// packages plus their in-module dependencies) the interprocedural
	// summaries fold over. Nil means the analyzed packages themselves.
	Universe []*Package
	// HotAlloc enables the escape-analysis check over //detlint:hotpath
	// functions. It shells out to `go build -gcflags=-m` and therefore
	// needs ModuleRoot.
	HotAlloc bool
	// ModuleRoot is the module directory hotalloc builds from.
	ModuleRoot string
}

// Run executes every analyzer over every package and returns the surviving
// diagnostics in (file, line, column) order. Suppression comments
// (//detlint:allow rule(reason)) are honoured per site; malformed or
// reason-less suppressions surface as diagnostics of the pseudo-rule
// "detlint", and suppressions that no longer suppress anything surface as
// "allowstale" — either way an exception can never silently mask or
// outlive a violation.
func Run(cfg *Config, analyzers []*Analyzer, pkgs []*Package, opts Options) ([]Diagnostic, error) {
	universe := opts.Universe
	if universe == nil {
		universe = pkgs
	}
	sums := BuildSummaries(cfg, universe)

	// active is the set of rules whose diagnostics this run can produce;
	// a suppression for an inactive rule (e.g. hotalloc when -hotalloc is
	// off) is exempt from staleness because the run cannot tell whether
	// it still earns its keep.
	active := make(map[string]bool, len(analyzers)+1)
	for _, a := range analyzers {
		active[a.Name] = true
	}
	if opts.HotAlloc {
		active[HotAlloc.Name] = true
	}

	known := knownRuleNames()
	var out []Diagnostic
	type pkgSups struct {
		pkg  *Package
		sups []suppression
		used []bool
	}
	var allSups []*pkgSups

	for _, pkg := range pkgs {
		var raw []Diagnostic
		ps := &pkgSups{pkg: pkg}
		ps.sups = collectSuppressions(pkg.Fset, pkg.Files, known, func(d Diagnostic) {
			out = append(out, d)
		})
		ps.used = make([]bool, len(ps.sups))
		allSups = append(allSups, ps)

		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				Info:      pkg.Info,
				PkgPath:   pkg.PkgPath,
				Cfg:       cfg,
				Summaries: sums,
				report:    func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		for _, d := range raw {
			if i := suppressedBy(d, ps.sups, pkg.Fset); i >= 0 {
				ps.used[i] = true
				continue
			}
			out = append(out, d)
		}
	}

	if opts.HotAlloc {
		hot, err := runHotAlloc(cfg, pkgs, opts.ModuleRoot)
		if err != nil {
			return nil, err
		}
		for _, d := range hot {
			covered := false
			for _, ps := range allSups {
				if i := suppressedBy(d, ps.sups, ps.pkg.Fset); i >= 0 {
					ps.used[i] = true
					covered = true
					break
				}
			}
			if !covered {
				out = append(out, d)
			}
		}
	}

	// allowstale: every suppression for an active rule must have earned
	// its keep this run. Suppressions in packages the rule does not police
	// (a kernel-blessed package's rawgo allow, a rand-exempt package's
	// globalrand allow) are left alone: the rule skipping the package is a
	// config decision, not evidence the exception rotted. The deletion is
	// machine-applicable (-fix).
	for _, ps := range allSups {
		for i, s := range ps.sups {
			if ps.used[i] || !active[s.rule] || !ruleCovers(cfg, s.rule, ps.pkg.PkgPath) {
				continue
			}
			pos := ps.pkg.Fset.Position(s.pos)
			end := ps.pkg.Fset.Position(s.end)
			out = append(out, Diagnostic{
				Pos:      pos,
				Analyzer: AllowStale.Name,
				Message: "suppression //detlint:allow " + s.rule + "(" + s.reason + ") no longer suppresses any diagnostic; " +
					"delete it (or re-justify it against a live violation)",
				Fix: &Fix{
					Path: pos.Filename,
					Edits: []TextEdit{{
						Start:      pos.Offset,
						End:        end.Offset,
						ExpandLine: true,
					}},
				},
			})
		}
	}

	sortDiagnostics(out)
	return out, nil
}

// ruleCovers mirrors each rule's package gate: whether the named rule can
// report diagnostics in pkgPath at all under cfg. Kept next to the audit
// that depends on it; a new analyzer with a package gate must be added here
// or its suppressions in skipped packages will be called stale.
func ruleCovers(cfg *Config, rule, pkgPath string) bool {
	switch rule {
	case GlobalRand.Name:
		return cfg.IsDeterministic(pkgPath) && !cfg.IsRandExempt(pkgPath)
	case RawGo.Name, VTBlock.Name:
		return cfg.IsDeterministic(pkgPath) && !cfg.IsKernel(pkgPath)
	case HotAlloc.Name:
		return true // hotpath annotations are legal in any package
	default:
		return cfg.IsDeterministic(pkgPath)
	}
}

// AllowStale is the suppression-rot rule: a //detlint:allow comment that no
// longer suppresses any diagnostic of an active rule is itself an error.
// Its diagnostics come from the runner's suppression bookkeeping, so Run is
// nil; it exists as an Analyzer for the rule registry (-rules, suppression
// parsing, documentation).
var AllowStale = &Analyzer{
	Name: "allowstale",
	Doc: "flag //detlint:allow comments that no longer suppress any diagnostic; " +
		"delete them (detlint -fix does) so the exception inventory cannot rot",
}
