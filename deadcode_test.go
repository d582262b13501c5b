package daasscale_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAllowlist names the declarations under internal/ and cmd/ that no
// shipped (non-test) file uses yet may stay, as "pkg.Name" or
// "pkg.Type.Method", each with one of three reasons:
//
//   - root-bench: the paper-figure benches in bench_test.go call it.
//   - oracle: another package's test compares a shipped result against it.
//   - test-seam: a test-only fault or fixture hook that nothing ships.
//
// An entry that gains a shipped user, or is deleted, fails the test too.
var deadAllowlist = map[string]string{
	"learned.Samples":          "root-bench",
	"learned.GenerateDataset":  "root-bench",
	"learned.Train":            "root-bench",
	"learned.BalancedAccuracy": "root-bench",
	"learned.Model.Classify":   "root-bench",
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
	"diskfaults.FS.Injected":   "test-seam",
	"diskfaults.FS.Ops":        "test-seam",
	"diskfaults.FS.PowerOn":    "test-seam",
	"diskfaults.FS.SetPlan":    "test-seam",
	"diskfaults.MemFS.Crash":   "test-seam",
}

// stdInterfaces are the stdlib interfaces (nil: all of the package's)
// through which the standard library calls module methods that no module
// file names. error and the Unwrap views errors.Is and errors.As take are
// added to them; an interface declared in the module counts unlisted.
var stdInterfaces = map[string][]string{
	"fmt":           {"Stringer"},
	"encoding":      {"BinaryMarshaler", "BinaryUnmarshaler", "TextMarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
	"io/fs":         {"FileInfo", "DirEntry"},
	"io":            nil,
	"net/http":      {"Handler"},
}

const modulePath = "daasscale"

// TestNoDeadExports fails when a package-level func, type, const or var, or a
// method, declared in a non-test file under internal/ or cmd/ is used by no
// non-test file in the module (its own package counts) and is not
// allowlisted. benchmark/ and examples/ count as users but are not scanned.
func TestNoDeadExports(t *testing.T) {
	if len(deadAllowlist) > 20 {
		t.Errorf("the allowlist holds %d entries, more than 20", len(deadAllowlist))
	}
	for name, reason := range deadAllowlist {
		if reason != "root-bench" && reason != "oracle" && reason != "test-seam" {
			t.Errorf("allowlist entry %s: unknown reason %q", name, reason)
		}
	}
	dead, err := deadDecls()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if _, ok := deadAllowlist[name]; !ok {
			t.Errorf("%s is declared but no non-test file uses it: give it a shipped user or delete it", name)
		}
	}
	for name := range deadAllowlist {
		if _, found := slices.BinarySearch(dead, name); !found {
			t.Errorf("allowlist entry %s is stale: it has a shipped user or no longer exists; drop the entry", name)
		}
	}
}

// deadDecls type-checks each module package's non-test files against the
// export data go list leaves in the build cache and returns the unused
// declarations under internal/ and cmd/, sorted. An imported object is not
// its source declaration, so objects match by import path, receiver, name.
func deadDecls() ([]string, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) { return os.Open(exports[p]) })
	declared, used := map[string]types.Object{}, map[string]bool{}
	ifaces := [][]string{{"Error"}, {"Unwrap"}} // method names
	addIface := func(tn *types.TypeName) {
		it := tn.Type().Underlying().(*types.Interface)
		names := make([]string, it.NumMethods())
		for i := range names {
			names[i] = it.Method(i).Name()
		}
		ifaces = append(ifaces, names)
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Module                  *struct{ Path string }
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, err
		}
		if exports[lp.ImportPath] = lp.Export; lp.Module == nil || lp.Module.Path != modulePath {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: gc}).Check(lp.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		// Uses also holds what every selector selects (Selections' objects),
		// so a method reached through a value or an embedded field counts.
		for _, obj := range info.Uses {
			if k, ok := declKey(obj); ok {
				used[k] = true
			}
		}
		scanned := strings.HasPrefix(lp.ImportPath, modulePath+"/internal/") || strings.HasPrefix(lp.ImportPath, modulePath+"/cmd/")
		for id, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.Parent() == pkg.Scope() && types.IsInterface(tn.Type()) {
				addIface(tn)
			}
			if k, ok := declKey(obj); ok && scanned && id.Name != "main" && id.Name != "init" {
				declared[k] = obj
			}
		}
	}

	for p, names := range stdInterfaces {
		pkg, err := gc.Import(p)
		if err != nil {
			continue // the module does not import p
		}
		if names == nil {
			names = pkg.Scope().Names()
		}
		for _, name := range names {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				addIface(tn)
			}
		}
	}
	var dead []string
	for k, obj := range declared {
		if !used[k] && !implementsUse(obj, ifaces) {
			dead = append(dead, path.Base(obj.Pkg().Path())+strings.TrimPrefix(k, obj.Pkg().Path()))
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// recvNamed returns the named type obj is a method of; nil when obj is no
// method or an interface's.
func recvNamed(obj types.Object) *types.Named {
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		rt := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		if named, ok := rt.(*types.Named); ok && !types.IsInterface(named) {
			return named
		}
	}
	return nil
}

// declKey names an object of a module package: "importpath.Name" when it is
// package-level, "importpath.Type.Method" when it is a method.
func declKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Name() == "_" || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath+"/") {
		return "", false
	}
	if named := recvNamed(obj); named != nil {
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name(), true
	}
	return obj.Pkg().Path() + "." + obj.Name(), obj.Parent() == obj.Pkg().Scope()
}

// implementsUse reports whether obj is a method whose receiver implements an
// interface that declares the method, judged by method names: that covers a
// generic interface too, whose instances need not appear in the source.
func implementsUse(obj types.Object, ifaces [][]string) bool {
	named := recvNamed(obj)
	if named == nil {
		return false
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	missing := func(name string) bool { return ms.Lookup(obj.Pkg(), name) == nil }
	for _, names := range ifaces {
		if slices.Contains(names, obj.Name()) && !slices.ContainsFunc(names, missing) {
			return true
		}
	}
	return false
}
