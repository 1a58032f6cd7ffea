// Package lint is ehsim's project-specific static-analysis suite: a set
// of go/analysis-shaped analyzers, each encoding one documented repo
// invariant, compiled into the cmd/ehsimvet vettool and run over ./...
// by the repo self-check test. The invariants they enforce are the ones
// every caching and byte-identity layer leans on (docs/ARCHITECTURE.md
// "Enforced invariants"):
//
//   - nondeterminism: engine packages must compute results as a pure
//     function of the canonical spec — no wall clock, no environment,
//     no unseeded randomness — because reports are content-addressed by
//     Spec.Hash() and golden-pinned (PR 3/4).
//   - maporder: rendered or hashed output must not depend on Go's
//     randomized map iteration order (PR 2 report byte-identity, PR 3
//     canonical JSON hashing).
//   - floatmetrics: ModelCase.Metrics carries no NaN/Inf — undefined
//     metrics are omitted (PR 8) — and metric floats are never compared
//     with ==/!=.
//   - mutexio: the service package performs no disk or network I/O
//     while holding a mutex — all cold-tier I/O runs off the server
//     mutex (PR 6).
//   - errfmt: errors wrap their cause with %w, and unknown-name errors
//     list the valid options (the registry contract).
//
// Intentional exceptions are declared in the source with
//
//	//lint:allow <analyzer> <reason>
//
// which suppresses that analyzer on the directive's line and the line
// after it; placed in a function's doc comment it covers the whole
// function. The reason is mandatory: an exception must document itself.
//
// The framework is deliberately x/tools-free: analyzers run over
// standard library go/ast + go/types trees, packages are loaded either
// through `go list -json -deps -export` (Load, used by tests and the
// standalone ehsimvet mode) or through the go vet -vettool unitchecker
// protocol (cmd/ehsimvet).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name is the analyzer's stable identifier — what diagnostics are
	// prefixed with and what //lint:allow directives name.
	Name string

	// Doc is the one-line description of the invariant enforced.
	Doc string

	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, position resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the vet-style file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		MaporderAnalyzer,
		FloatmetricsAnalyzer,
		MutexioAnalyzer,
		ErrfmtAnalyzer,
	}
}

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	PkgPath string
	Name    string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// Run executes the analyzers over the package, applies the //lint:allow
// directives, and returns the surviving diagnostics sorted by position.
// Malformed directives are themselves diagnostics (analyzer
// "directive") and cannot be suppressed.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allows, diags := scanAllows(pkg, analyzers)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.PkgPath,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
		}
		pass.report = func(d Diagnostic) {
			if !allows.suppressed(d) {
				diags = append(diags, d)
			}
		}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// enginePackages names the packages whose results feed content-hash
// caching, golden corpora, or checkpoint byte-identity — the scope of
// the determinism analyzers. Non-engine packages such as servicetest
// are deliberately absent: wall-clock timing and fault proxies are
// their job.
var enginePackages = map[string]bool{
	"isa": true, "circuit": true, "mcu": true, "lab": true,
	"mpsoc": true, "taskburst": true, "eneutral": true,
	"scenario": true, "sweep": true, "trace": true, "source": true,
	"explore": true, "transient": true, "powerneutral": true,
	"result": true,
}

// engineScoped reports whether pkgPath is one of the engine packages
// the determinism invariants apply to.
func engineScoped(pkgPath string) bool {
	return enginePackages[path.Base(pkgPath)]
}

// isTestFile reports whether pos lies in a _test.go file. Tests poll
// wall-clock deadlines and format with t.Errorf legitimately, so every
// analyzer skips them.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// sourceFiles yields the pass's non-test files.
func sourceFiles(p *Pass) []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !isTestFile(p.Fset, f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// calleeFunc resolves the called function or method of call, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// pkgOf returns the defining package path of fn ("" for builtins).
func pkgOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// recvOf returns fn's receiver type, or nil for package-level funcs.
func recvOf(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}
