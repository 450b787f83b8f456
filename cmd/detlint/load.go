package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"fusedcc/internal/analysis"
)

// The loader lists every requested package — in-package and external
// test files included, exactly the set `go test` would build — through
// `go list -e -test -deps -json` and typechecks the whole dependency
// closure from source. The module has a zero-dependency go.mod, so the
// closure is this repo plus the standard library; no export data or
// network is needed.

// goPkg is the subset of `go list -json` output the loader consumes.
type goPkg struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Error      *struct{ Err string }
}

// finding is one reported diagnostic, and the dedupe key across the
// plain and test-augmented variants of a package.
type finding struct {
	Pos     string
	Check   string
	Message string
}

// runStandalone lints the packages matching patterns and returns how
// many findings it printed to w.
func runStandalone(patterns []string, w io.Writer) (int, error) {
	pkgs, err := listPackages(patterns)
	if err != nil {
		return 0, err
	}

	l := newSrcLoader()
	for _, p := range pkgs {
		l.table[p.ImportPath] = p
	}
	// When a test-augmented variant "P [P.test]" is listed, it carries
	// all of P's files plus its in-package tests; analyzing plain P too
	// would duplicate every finding in the shared files.
	augmented := make(map[string]bool)
	for _, p := range pkgs {
		if p.ForTest != "" && strings.Contains(p.ImportPath, " [") {
			augmented[p.ForTest] = true
		}
	}

	var all []finding
	for _, p := range pkgs {
		if p.Standard || p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest == "" && augmented[p.ImportPath] {
			continue
		}
		if p.Error != nil {
			return 0, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		checked, err := l.check(p)
		if err != nil {
			return 0, fmt.Errorf("typechecking %s: %w", p.ImportPath, err)
		}
		diags, err := analysis.Check(l.fset, checked.files, checked.pkg, checked.info, analysis.All())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		for _, d := range diags {
			all = append(all, finding{
				Pos:     l.fset.Position(d.Pos).String(),
				Check:   d.Check,
				Message: d.Message,
			})
		}
	}

	// Variant and plain packages can still overlap through xtest files;
	// dedupe on position+message and keep a stable order.
	seen := make(map[finding]bool)
	uniq := all[:0]
	for _, d := range all {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].Pos != uniq[j].Pos {
			return uniq[i].Pos < uniq[j].Pos
		}
		return uniq[i].Message < uniq[j].Message
	})

	for _, d := range uniq {
		fmt.Fprintf(w, "%s: [%s] %s\n", d.Pos, d.Check, d.Message)
	}
	return len(uniq), nil
}

func listPackages(patterns []string) ([]*goPkg, error) {
	args := append([]string{"list", "-e", "-test", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	// Pure-Go file sets keep the source typechecker self-contained: no
	// cgo-generated declarations to miss.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*goPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(goPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// srcLoader typechecks go-list packages from source in dependency
// order, caching results by (possibly test-variant) import path.
type srcLoader struct {
	fset  *token.FileSet
	table map[string]*goPkg
	done  map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newSrcLoader() *srcLoader {
	return &srcLoader{
		fset:  token.NewFileSet(),
		table: make(map[string]*goPkg),
		done:  make(map[string]*checkedPkg),
	}
}

func (l *srcLoader) check(p *goPkg) (*checkedPkg, error) {
	if c, ok := l.done[p.ImportPath]; ok {
		return c, nil
	}
	if len(p.CgoFiles) > 0 {
		return nil, fmt.Errorf("%s: unexpected cgo files with CGO_ENABLED=0", p.ImportPath)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	cfg := &types.Config{
		Importer:    &pkgImporter{l: l, from: p},
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		FakeImportC: true,
	}
	path := p.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	c := &checkedPkg{pkg: pkg, files: files, info: info}
	l.done[p.ImportPath] = c
	return c, nil
}

// pkgImporter resolves one package's imports: source import strings map
// to the go-list resolved paths (which carry " [P.test]" suffixes for
// test-augmented dependencies), then load recursively.
type pkgImporter struct {
	l    *srcLoader
	from *goPkg
}

func (pi *pkgImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	resolved := path
	for _, imp := range pi.from.Imports {
		base := imp
		if i := strings.Index(imp, " ["); i >= 0 {
			base = imp[:i]
		}
		if base == path {
			resolved = imp
			break
		}
	}
	dep, ok := pi.l.table[resolved]
	if !ok {
		return nil, fmt.Errorf("import %q not in the go list closure of %s", path, pi.from.ImportPath)
	}
	c, err := pi.l.check(dep)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}
