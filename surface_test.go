package amf

// Surface lint: the traffic this repository serves is what cmd/,
// examples/ and bench/ call. An exported function or method under
// internal/ or cmd/ that none of their non-test files reaches exists only
// for its own tests, and every such signature is something the next
// refactor has to carry. TestNoUncalledExports fails on each one that is
// not in the keep table below, and — like the README lints in
// internal/cluster — in the other direction too: a keep entry that is
// called by now, or gone, must be deleted.

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "github.com/qoslab/amf"

// keep is the written form of the three exceptions to "no caller, no
// function", keyed by types.Func.FullName with the module's internal/
// prefix dropped: a reference implementation tests compare a fast path
// against (oracle), a small accessor or fixture constructor that tests in
// several files observe or build state through, and a seam a test
// substitutes through. Every entry carries its reason; maxKeep bounds the
// table so it stays an exception list.
var keep = map[string]string{
	"(*core.Model).RankServices":          "oracle: the float64 full sort every view ranking is held against (core rank/topk/select/precision/view tests)",
	"(*core.Model).PredictWithConfidence": "oracle: float64 reference for PredictView.PredictWithConfidence (core model_test, view_test)",
	"matrix.Mul":                          "oracle: MulT, which feeds Gram and Fig. 9's singular values, is held against Mul(a, bᵀ) (matrix dense_test)",

	"(*core.Model).NumUsers":           "observed by tests in core model_test, snapshot_test, view_test, view_cow_test, precision_test, property_test",
	"(*core.Model).NumServices":        "observed by tests in the same six core test files as NumUsers",
	"(*core.Model).Updates":            "observed by tests in core model_test, snapshot_test, view_test, precision_test, property_test",
	"(*core.Model).KnowsUser":          "observed by tests in core model_test, snapshot_test, property_test",
	"(*core.Model).KnowsService":       "observed by tests in core model_test, snapshot_test, property_test",
	"(*core.PredictView).KnowsUser":    "observed by tests in core view_test, engine engine_test and stress_test, server durable_test",
	"(*core.PredictView).KnowsService": "observed by tests in core view_test and topk_test, engine engine_test, server durable_test",
	"dataset.MustNew":                  "fixture constructor: tests in seven files (dataset, eval, stream, core, adapt) build their generator with it",
	"dataset.SmallConfig":              "fixture: the shared small dataset shape of dataset, stream and core tests (four files)",
	"transform.MustNew":                "fixture constructor: every transform test and the package example build their Transformer with it",
	"matrix.EffectiveRank":             "Fig. 9's low-rank reading: dataset generator_test and matrix eigen_test report it",

	"server.NewWithClock":                "test seam: injects the server clock (server_test TestObserveCustomTimestamp)",
	"server.WithSlowRequestThreshold":    "test seam: lowers the slow-request threshold so TestSlowRequestLogged need not sleep a second",
	"(*store.Manager).SetCaptureForTest": "test seam: installs a checkpoint capture without the background loop (store manager_test, fence_test, bench_test)",
}

const maxKeep = 60

// conventionalMethods are reached through standard-library interfaces
// (fmt, sort, container/heap, io, net/http, flag) rather than by name.
var conventionalMethods = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Close": true, "Read": true, "Write": true,
	"ServeHTTP": true, "RoundTrip": true, "Set": true,
}

// surfaceImporter type-checks the module's own packages (root module and
// bench/, whose import paths both map onto directories under the root)
// once each from their non-test files, so one *types.Func stands for a
// function at every use site; everything else is the standard library,
// imported from source.
type surfaceImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (si *surfaceImporter) Import(ipath string) (*types.Package, error) {
	if ipath != modulePath && !strings.HasPrefix(ipath, modulePath+"/") {
		return si.std.Import(ipath)
	}
	if pkg, ok := si.pkgs[ipath]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(ipath, modulePath), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(si.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: si}).Check(ipath, si.fset, files, si.info)
	if err != nil {
		return nil, err
	}
	si.pkgs[ipath] = pkg
	si.files[ipath] = files
	return pkg, nil
}

// surface is what the scan needs of the type-checked tree: the functions
// declared in non-test files outside bench/, every reference to a
// function from a non-test file of either module with the declaration it
// sits in (nil at package level), and the method names some interface in
// the tree declares.
type surface struct {
	declared map[*types.Func]bool
	uses     []funcUse
	viaIface map[string]bool
}

type funcUse struct{ from, to *types.Func }

func loadSurface(t *testing.T) *surface {
	t.Helper()
	fset := token.NewFileSet()
	si := &surfaceImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != "." && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = si.Import(path.Join(modulePath, filepath.ToSlash(p)))
		if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
			return nil // a directory of docs, data or nothing buildable
		}
		return err
	})
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}

	sf := &surface{declared: map[*types.Func]bool{}, viaIface: map[string]bool{}}
	for name := range conventionalMethods {
		sf.viaIface[name] = true
	}
	benchPath := modulePath + "/bench"
	for ipath, files := range si.files {
		inBench := ipath == benchPath || strings.HasPrefix(ipath, benchPath+"/")
		for _, f := range files {
			for _, decl := range f.Decls {
				var from *types.Func
				if fd, ok := decl.(*ast.FuncDecl); ok {
					from = si.info.Defs[fd.Name].(*types.Func)
					if !inBench {
						sf.declared[from] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.InterfaceType:
						for _, m := range n.Methods.List {
							for _, id := range m.Names {
								sf.viaIface[id.Name] = true
							}
						}
					case *ast.Ident:
						if fn, ok := si.info.Uses[n].(*types.Func); ok {
							sf.uses = append(sf.uses, funcUse{from, fn.Origin()})
						}
					}
					return true
				})
			}
		}
	}
	return sf
}

// shortName is fn.FullName() without the module path (and without
// internal/): "(*core.Model).Updates", "matrix.Mul", "cmd/qosgen.Run".
func shortName(fn *types.Func) string {
	name := strings.ReplaceAll(fn.FullName(), modulePath+"/internal/", "")
	return strings.ReplaceAll(name, modulePath+"/", "")
}

// uncalled returns, keyed by shortName, every declared function that
// nothing reaches. Methods whose name an interface
// declares are taken as reachable through it. A reference from inside a
// function that is itself uncalled and not in live does not count, to a
// fixpoint, so a dead chain is reported whole while whatever a kept
// function calls stays.
func (sf *surface) uncalled(live map[string]string) map[string]*types.Func {
	dead := map[*types.Func]bool{}
	for fn := range sf.declared {
		switch name := fn.Name(); {
		case name == "main" || name == "init" || name == "_":
		case fn.Type().(*types.Signature).Recv() != nil && sf.viaIface[name]:
		case live[shortName(fn)] != "":
		default:
			dead[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, u := range sf.uses {
			if dead[u.to] && u.from != u.to && !dead[u.from] {
				delete(dead, u.to)
				changed = true
			}
		}
	}
	out := map[string]*types.Func{}
	for fn := range dead {
		out[shortName(fn)] = fn
	}
	return out
}

func TestNoUncalledExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library from source")
	}
	if len(keep) > maxKeep {
		t.Errorf("keep table has %d entries, limit %d: it is an exception list, not a second API", len(keep), maxKeep)
	}
	sf := loadSurface(t)
	var problems []string
	for name, fn := range sf.uncalled(keep) {
		pkg := strings.TrimPrefix(fn.Pkg().Path(), modulePath+"/")
		if fn.Exported() && (strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "cmd/")) {
			problems = append(problems, name+": exported, but no non-test file of cmd/, examples/, internal/ or bench/ calls it: delete it, or add it to keep with the reason it stays")
		}
	}
	// The other direction: an entry earns its line only if the function
	// would be reported without it.
	for name := range keep {
		without := map[string]string{}
		for k, v := range keep {
			if k != name {
				without[k] = v
			}
		}
		if _, ok := sf.uncalled(without)[name]; !ok {
			problems = append(problems, name+": in keep, but it is called from non-test code by now, or gone: delete the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
