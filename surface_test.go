package amf

// Surface lint: the traffic this repository serves is what cmd/,
// examples/ and bench/ call. An exported function or method under
// internal/ or cmd/ that none of their non-test files reaches exists only
// for its own tests, and every such signature is something the next
// refactor has to carry. An unexported package-level function that no
// non-test file calls is a helper whose last caller was deleted.
// TestNoUncalledExports fails on each of either that is not in the keep
// table below, and — like the README lints in
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
// substitutes through. Option fields that only tests set join it under
// their optionName ("store.Options.SegmentBytes") for
// TestNoUnsetOptionFields. Every entry carries its reason; maxKeep bounds
// the table so it stays an exception list.
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

	"server.NewWithClock":                "test seam: injects the server clock (server_test TestObserveCustomTimestamp, TestFutureTimestampKeepsReplay; durable_test TestRestartKeepsReplay)",
	"server.WithSlowRequestThreshold":    "test seam: lowers the slow-request threshold so TestSlowRequestLogged need not sleep a second",
	"(*store.Manager).SetCaptureForTest": "test seam: installs a checkpoint capture without the background loop (store manager_test, fence_test, bench_test)",

	// Option fields (TestNoUnsetOptionFields): every other caller takes
	// the default.
	"core.Config.MaxGradNorm":             "gob-encoded in every snapshot and checkpoint, so dropping it changes their bytes; core property_test TestConfigWithDefaults sets it to check the clamp's default",
	"eval.Fig10Options.Density":           "test seam: TestRunFig10AMFDensestAroundZero runs at 20% on the tiny dataset",
	"eval.SliceSeriesOptions.Density":     "test seam: TestRunSliceSeriesAMFWinsEverySlice runs at 20% on the tiny dataset",
	"eval.PrequentialOptions.Density":     "test seam: TestRunPrequentialOnlineAccuracy runs at 30% on the tiny dataset",
	"eval.ParamSweepOptions.Ranks":        "test seam: TestRunParamSweep and TestFig13And14AndParamsShape sweep two ranks or one instead of five",
	"eval.ParamSweepOptions.Regs":         "test seam: TestRunParamSweep and TestFig13And14AndParamsShape sweep one λ instead of five",
	"eval.ParamSweepOptions.LearnRates":   "test seam: TestRunParamSweep and TestFig13And14AndParamsShape sweep one η instead of five",
	"eval.ParamSweepOptions.Betas":        "test seam: TestRunParamSweep and TestFig13And14AndParamsShape sweep one β instead of five",
	"obs/trace.Config.Capacity":           "test seam: trace_test's recorders keep 4 to 16 spans so a test can fill the ring",
	"obs/trace.Config.RetainedCapacity":   "test seam: trace_test TestRecorderRetainsSlowAndErrored and TestRecycledSpansStayConsistent bound the retained ring at 8",
	"server.FollowerConfig.WaitMS":        "test seam: server replication_test and cluster failover_test, gateway_test poll every 5 to 200 ms instead of 5 s",
	"server.FollowerConfig.RetryInterval": "test seam: server replication_test and cluster failover_test, gateway_test retry after 20 ms instead of 200 ms",
	"store.Options.FenceCheckInterval":    "test seam: store fence_test re-reads the LOCK file on its own schedule",
	"store.Options.SegmentBytes":          "test seam: store manager_test TestManagerCheckpointTruncatesWAL rotates 200-byte segments",
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
// sits in (nil at package level), and the interfaces a call can reach a
// method through. A named interface counts only if a non-test file names
// it outside its own declaration (one only tests assert against reaches
// nothing), and then only for the types that implement it; an interface
// literal, and the standard library's conventional methods, count by
// method name.
type surface struct {
	declared map[*types.Func]bool
	uses     []funcUse
	viaIface map[string]bool
	ifaces   []*types.Interface
	// options maps each field of an exported *Config or *Options struct
	// under internal/ to its optionName; set holds the fields a non-test
	// file of either module sets.
	options map[*types.Var]string
	set     map[*types.Var]bool
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

	sf := &surface{
		declared: map[*types.Func]bool{},
		viaIface: map[string]bool{},
		options:  map[*types.Var]string{},
		set:      map[*types.Var]bool{},
	}
	setField := func(id *ast.Ident) {
		if v, ok := si.info.Uses[id].(*types.Var); ok && v.IsField() {
			sf.set[v.Origin()] = true
		}
	}
	// An assignment to a field of the enclosing function's own receiver
	// or parameter fills in a default on the value a caller passed
	// (withDefaults, a constructor's zero check): it sets nothing the
	// caller chose, so it does not count.
	var own map[types.Object]bool
	assigned := func(lhs ast.Expr) {
		if sel, ok := lhs.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); !ok || !own[si.info.Uses[x]] {
				setField(sel.Sel)
			}
		}
	}
	for name := range conventionalMethods {
		sf.viaIface[name] = true
	}
	// Each named interface's declaration, and every place a non-test file
	// names a type.
	ifaceSpecs := map[*types.TypeName]*ast.TypeSpec{}
	specOf := map[*ast.InterfaceType]bool{}
	type typeUse struct {
		at token.Pos
		tn *types.TypeName
	}
	var typeUses []typeUse
	benchPath := modulePath + "/bench"
	for ipath, files := range si.files {
		inBench := ipath == benchPath || strings.HasPrefix(ipath, benchPath+"/")
		for _, f := range files {
			for _, decl := range f.Decls {
				var from *types.Func
				own = map[types.Object]bool{}
				if fd, ok := decl.(*ast.FuncDecl); ok {
					from = si.info.Defs[fd.Name].(*types.Func)
					if !inBench {
						sf.declared[from] = true
					}
					for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
						if fl == nil {
							continue
						}
						for _, field := range fl.List {
							for _, id := range field.Names {
								own[si.info.Defs[id]] = true
							}
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.TypeSpec:
						if it, ok := n.Type.(*ast.InterfaceType); ok {
							ifaceSpecs[si.info.Defs[n.Name].(*types.TypeName)] = n
							specOf[it] = true
						}
						if tn := si.info.Defs[n.Name].(*types.TypeName); isOptionType(tn) {
							st := tn.Type().Underlying().(*types.Struct)
							for i := 0; i < st.NumFields(); i++ {
								sf.options[st.Field(i)] = optionName(tn, st.Field(i))
							}
						}
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									setField(id)
								}
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							assigned(lhs)
						}
					case *ast.IncDecStmt:
						assigned(n.X)
					case *ast.InterfaceType:
						if specOf[n] {
							break
						}
						for _, m := range n.Methods.List {
							for _, id := range m.Names {
								sf.viaIface[id.Name] = true // a literal is in use where it stands
							}
						}
					case *ast.Ident:
						switch obj := si.info.Uses[n].(type) {
						case *types.Func:
							sf.uses = append(sf.uses, funcUse{from, obj.Origin()})
						case *types.TypeName:
							typeUses = append(typeUses, typeUse{n.Pos(), obj})
						}
					}
					return true
				})
			}
		}
	}
	inUse := map[*types.TypeName]bool{}
	for _, u := range typeUses {
		spec := ifaceSpecs[u.tn]
		if spec == nil || inUse[u.tn] || (u.at >= spec.Pos() && u.at < spec.End()) {
			continue
		}
		inUse[u.tn] = true
		sf.ifaces = append(sf.ifaces, u.tn.Type().Underlying().(*types.Interface))
	}
	return sf
}

// isOptionType reports whether tn is a package-level exported struct
// type under internal/ whose name ends in Config or Options: the option
// structs TestNoUnsetOptionFields audits.
func isOptionType(tn *types.TypeName) bool {
	if !tn.Exported() || tn.Parent() != tn.Pkg().Scope() ||
		!strings.HasPrefix(tn.Pkg().Path(), modulePath+"/internal/") ||
		!(strings.HasSuffix(tn.Name(), "Config") || strings.HasSuffix(tn.Name(), "Options")) {
		return false
	}
	_, ok := tn.Type().Underlying().(*types.Struct)
	return ok
}

// optionName names field f of option type tn as a keep key:
// "core.Config.MaxGradNorm", "obs/trace.Config.Capacity".
func optionName(tn *types.TypeName, f *types.Var) string {
	return strings.TrimPrefix(tn.Pkg().Path(), modulePath+"/internal/") + "." + tn.Name() + "." + f.Name()
}

// shortName is fn.FullName() without the module path (and without
// internal/): "(*core.Model).Updates", "matrix.Mul", "cmd/qosgen.Run".
func shortName(fn *types.Func) string {
	name := strings.ReplaceAll(fn.FullName(), modulePath+"/internal/", "")
	return strings.ReplaceAll(name, modulePath+"/", "")
}

// reachedViaIface reports whether a call through an interface can reach
// method fn: its name is conventional or an interface literal's, or its
// receiver type (or a pointer to it) implements an interface in use that
// declares it. A generic receiver is matched by name.
func (sf *surface) reachedViaIface(fn *types.Func) bool {
	if sf.viaIface[fn.Name()] {
		return true
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	ptr, isPtr := recv.(*types.Pointer)
	base := recv
	if isPtr {
		base = ptr.Elem()
	}
	named, _ := base.(*types.Named)
	generic := named != nil && named.TypeParams().Len() > 0
	for _, it := range sf.ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			declares = declares || it.Method(i).Name() == fn.Name()
		}
		if declares && (generic || types.Implements(base, it) || types.Implements(types.NewPointer(base), it)) {
			return true
		}
	}
	return false
}

// uncalled returns, keyed by shortName, every declared function that
// nothing reaches. Methods whose name an interface in use declares are
// taken as reachable through it. A reference from inside a
// function that is itself uncalled and not in live does not count, to a
// fixpoint, so a dead chain is reported whole while whatever a kept
// function calls stays.
func (sf *surface) uncalled(live map[string]string) map[string]*types.Func {
	dead := map[*types.Func]bool{}
	for fn := range sf.declared {
		switch name := fn.Name(); {
		case name == "main" || name == "init" || name == "_":
		case fn.Type().(*types.Signature).Recv() != nil && sf.reachedViaIface(fn):
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
		switch {
		case fn.Exported() && (strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "cmd/")):
			problems = append(problems, name+": exported, but no non-test file of cmd/, examples/, internal/ or bench/ calls it: delete it, or add it to keep with the reason it stays")
		case !fn.Exported() && fn.Type().(*types.Signature).Recv() == nil:
			problems = append(problems, name+": unexported function that no non-test file calls (left behind by a deleted caller?): delete it, or add it to keep with the reason it stays")
		}
	}
	// The other direction: an entry earns its line only if the function
	// would be reported without it. Option fields are
	// TestNoUnsetOptionFields' entries.
	fields := map[string]bool{}
	for _, name := range sf.options {
		fields[name] = true
	}
	for name := range keep {
		if fields[name] {
			continue
		}
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

// TestNoUnsetOptionFields holds option structs to the rule
// TestNoUncalledExports holds functions to: a field of an exported
// *Config or *Options struct under internal/ that no non-test file of
// the root module or bench/ sets — as a composite-literal key or an
// assignment target — is a knob nothing turns, and must go or be listed
// in keep with the reason it stays. An unkeyed literal does not count
// (vet's composites check refuses them for imported types). In the other
// direction, a listed field that non-test code sets by now must leave
// keep.
func TestNoUnsetOptionFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules and the standard library from source")
	}
	sf := loadSurface(t)
	var problems []string
	for v, name := range sf.options {
		switch _, kept := keep[name]; {
		case !sf.set[v] && !kept:
			problems = append(problems, name+": option field that no non-test file of the root module or bench/ sets: delete it, or add it to keep with the reason it stays")
		case sf.set[v] && kept:
			problems = append(problems, name+": in keep, but non-test code sets it by now: delete the entry")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
