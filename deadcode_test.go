package daasscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported package-level funcs under
// internal/ that no shipped (non-test) file calls yet may stay. Every entry
// carries one of three reasons:
//
//   - root-bench: the paper-figure benches in bench_test.go call it; the
//     reproduction code moves onto a shipped command when the benches do.
//   - oracle: another package's test compares a shipped result against it.
//   - test-seam: a test-only fault or fixture hook the production seam
//     accepts (fsio.FS and friends) but nothing ships.
//
// An entry whose func gains a shipped caller, or is deleted, fails the test
// too, so the list only ever shrinks.
var deadExportAllowlist = map[string]string{
	"learned.Samples":          "root-bench",
	"learned.GenerateDataset":  "root-bench",
	"learned.Train":            "root-bench",
	"learned.BalancedAccuracy": "root-bench",
	"policy.NewScheduled":      "root-bench",
	"telemetry.SteadySignals":  "root-bench",
	"trace.Diurnal":            "root-bench",
	"stats.TheilSen":           "root-bench",
	"stats.LeastSquares":       "root-bench",
	"stats.CDF":                "oracle",
	"stats.Histogram":          "oracle",
	"stats.Spearman":           "oracle",
	"diskfaults.NewMemFS":      "test-seam",
	"diskfaults.MaskOf":        "test-seam",
}

const modulePath = "daasscale"

// TestNoDeadExports fails when an exported package-level func declared in a
// non-test file under internal/ is referenced by no non-test file in the
// module (its own package counts) and is not allowlisted. Methods are out of
// scope: resolving a selector to a method needs type information.
func TestNoDeadExports(t *testing.T) {
	for name, reason := range deadExportAllowlist {
		switch reason {
		case "root-bench", "oracle", "test-seam":
		default:
			t.Errorf("allowlist entry %s: unknown reason %q", name, reason)
		}
	}

	dead, err := deadExports(".")
	if err != nil {
		t.Fatal(err)
	}
	isDead := make(map[string]bool, len(dead))
	for _, name := range dead {
		isDead[name] = true
		if _, ok := deadExportAllowlist[name]; !ok {
			t.Errorf("%s is exported but no non-test file references it: give it a shipped caller, unexport it or delete it", name)
		}
	}
	for name := range deadExportAllowlist {
		if !isDead[name] {
			t.Errorf("allowlist entry %s is stale: it has a shipped caller or no longer exists; drop the entry", name)
		}
	}
}

// deadExports returns "pkg.Func" for every exported package-level func
// declared in a non-test file under root/internal that no non-test file in
// the module references, sorted.
func deadExports(root string) ([]string, error) {
	type pkgFile struct {
		importPath string
		file       *ast.File
	}
	var files []pkgFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, pkgFile{path.Join(modulePath, filepath.ToSlash(rel)), f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every exported package-level func under internal/, as
	// "importpath.Func", and every module package's name.
	internal := path.Join(modulePath, "internal") + "/"
	pkgName := map[string]string{}
	declared := map[string]bool{}
	for _, pf := range files {
		pkgName[pf.importPath] = pf.file.Name.Name
		if !strings.HasPrefix(pf.importPath, internal) {
			continue
		}
		for _, decl := range pf.file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[pf.importPath+"."+fn.Name.Name] = true
			}
		}
	}

	used := map[string]bool{}
	mark := func(importPath, name string) { used[importPath+"."+name] = true }
	for _, pf := range files {
		// Local names of the module packages this file imports.
		local := map[string]string{}
		for _, imp := range pf.file.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			name, ok := pkgName[ip]
			if err != nil || !ok {
				continue
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = ip
		}
		ast.Inspect(pf.file, refVisitor(local, pf.importPath, mark))
	}

	var dead []string
	for key := range declared {
		if !used[key] {
			dot := strings.LastIndex(key, ".")
			dead = append(dead, pkgName[key[:dot]]+key[dot:])
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// refVisitor returns an ast.Inspect visitor that marks the func a selector
// through an imported package, or a bare identifier in the func's own
// package, refers to. Declared names, field names and selectors on values
// are not references.
func refVisitor(local map[string]string, self string, mark func(importPath, name string)) func(ast.Node) bool {
	var visit func(ast.Node) bool
	walk := func(n ast.Node) { ast.Inspect(n, visit) }
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil {
				walk(n.Recv)
			}
			walk(n.Type)
			if n.Body != nil {
				walk(n.Body)
			}
			return false
		case *ast.Field:
			walk(n.Type)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if ip, ok := local[x.Name]; ok {
					mark(ip, n.Sel.Name)
					return false
				}
			}
			walk(n.X)
			return false
		case *ast.KeyValueExpr:
			if _, ok := n.Key.(*ast.Ident); !ok {
				walk(n.Key)
			}
			walk(n.Value)
			return false
		case *ast.Ident:
			mark(self, n.Name)
		}
		return true
	}
	return visit
}
