package mptcpsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fieldAllow is every struct field of production code that TestEveryFieldIsSetAndRead
// lets stand although no production code sets it, or none reads it. Each
// entry says which of four classes it is in: a feature only tests switch on
// but whose tests pin a standard, a seam tests inject faults through, a point
// tests observe the engine at, or a name bench/ pins (only a benchmark PR may
// touch bench/).
var fieldAllow = map[string]string{
	"mptcpsim.Options.Timestamps": "tested feature: no command sets it, the RFC 7323 tests of internal/tcp and TestTimestampsOptionRuns do",
	"mptcpsim.Options.CrossTCP":   "tested feature: no command sets it, TestCrossTrafficFairness pins RFC 6356's do-no-harm goal against a competing TCP flow",
	"tcp.Config.RcvBuf":           "tested feature: only the flow-control tests set it; withDefaults fills DefaultRcvBuf",

	"fleet.Worker.SyncEvery": "test seam: crash-injection tests shorten the fsync batch",
	"mptcp.Config.Source":    "test seam: the mptcp scripts send an exact byte count through it; runs stream (nil is infinite bulk)",
	"fleet.Worker.WrapSink":  "test seam: crash-injection tests (and bench/) wrap the shard's sink",

	"fleet.Coordinator.Sweep":   "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.Grid":    "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.Shards":  "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.Workers": "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.Spool":   "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.Runner":  "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Coordinator.TTL":     "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"fleet.Worker.Sweep":        "pinned by bench/: bench/workloads.go's fleet pass is the only user of the in-process worker",
	"fleet.Worker.Grid":         "pinned by bench/: bench/workloads.go's fleet pass is the only user of the in-process worker",
	"fleet.Worker.Spool":        "pinned by bench/: bench/workloads.go's fleet pass is the only user of the in-process worker",

	"tcp.Stats.AcksSent":      "test observation point: delayed-ACK tests count the ACKs",
	"tcp.Stats.DeliveredData": "test observation point: receiver tests read the in-order byte count",
	"tcp.Conn.peerTSseen":     "test observation point: the timestamp tests check an echo was seen",
	"mptcp.Subflow.assigned":  "test observation point: per-subflow share of the scheduler's grants",
	"mptcp.RecvConn.subflows": "test observation point: join-demultiplexing tests count the joined subflows",

	"tcp.CountSink.Bytes":   "test observation point: the tcp tests read what a plain-TCP receiver was handed",
	"check.Ladder.Stripped": "test observation point: the ladder-coverage test wants some ladder to have stripped events",

	"cc.Flow.ID":                "pinned by bench/: its only source is tcp.Config.FlowID, which bench/layers.go sets; no algorithm reads it",
	"topo.PaperNet.Graph":       "pinned by bench/: bench/layers.go runs its mptcp and lp benchmarks on topo.Paper's graph",
	"topo.PaperNet.S":           "pinned by bench/: bench/layers.go puts its sender on topo.Paper's source",
	"topo.PaperNet.D":           "pinned by bench/: bench/layers.go puts its receiver on topo.Paper's destination",
	"topo.PaperNet.Paths":       "pinned by bench/: bench/layers.go routes its subflows and solves its LPs over topo.Paper's paths",
	"topo.PaperNet.Bottlenecks": "pinned by bench/: bench/layers.go builds its LP cold-solve variants from topo.Paper's shared links",
}

// TestEveryFieldIsSetAndRead is the field-level reachability pass as a
// guard. It type-checks every non-test file of the module outside bench/ and
// fails naming any struct field — embedded ones set aside, and JSON-tagged
// ones encoding/json really reads or writes (see jsonFields) — that no
// production code sets or none reads, unless fieldAllow gives the reason it
// stays. A field nobody sets is a constant; a field nobody reads is not
// state. A json tag alone earns nothing: a tagged type nothing encodes is
// checked like any other.
//
// A write is a composite-literal element, an assignment (x.f += 1 included:
// a counter nobody looks at is not read by being bumped), ++/--, &x.f,
// slicing an array x.f[:], or a pointer-receiver method call on x.f (the
// last three hand out the field's memory and count as reads too); writing
// x.f.g also writes f when f holds its struct or array by value. Writes
// inside a method named withDefaults are the default, not a caller's choice,
// and do not count. Every other mention of a field is a read, and comparing
// struct values or keying a map by them reads every field of the struct.
func TestEveryFieldIsSetAndRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	uses, fset := fieldUses(t)
	var bad []string
	seen := map[string]bool{}
	for v, u := range uses {
		seen[u.name] = true
		_, allowed := fieldAllow[u.name]
		switch {
		case u.writes > 0 && u.reads > 0:
			if allowed {
				bad = append(bad, fmt.Sprintf("%s is set and read: drop it from fieldAllow", u.name))
			}
		case allowed:
		default:
			what := "set"
			if u.writes > 0 {
				what = "read"
			}
			bad = append(bad, fmt.Sprintf("%s: %s is never %s by production code (%d writes, %d reads)",
				fset.Position(v.Pos()), u.name, what, u.writes, u.reads))
		}
	}
	classes := []string{"tested feature", "test seam", "test observation point", "pinned by bench/"}
	for name, why := range fieldAllow {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("fieldAllow names %s, which is not declared", name))
		}
		if class, _, ok := strings.Cut(why, ":"); !ok || !slices.Contains(classes, class) {
			bad = append(bad, fmt.Sprintf("fieldAllow[%s] gives no class and reason", name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// funcAllow is every package-level function and method of production code
// that TestEveryFuncIsReached lets stand although no production code refers
// to it. Each entry says which of four classes it is in: a seam tests inject
// through, a reference implementation tests compare against, a point tests
// observe the engine at, or a name bench/ pins (only a benchmark PR may
// touch bench/).
var funcAllow = map[string]string{
	"netem.Link.SetAQM": "test seam: the tcp and mptcp tests drop chosen segments through an admission policy",

	"tcp.Conn.scanOutstanding": "test reference: the scoreboard tests hold the incremental pipe to this scan",

	"tcp.Conn.State":           "test observation point: the handshake and close tests read the connection state",
	"telemetry.Recorder.Total": "test observation point: the recorder tests count the events it saw, retained or not",
	"sim.Loop.Len":             "test observation point: the kernel tests count the pending events",

	"mptcpsim.ResetBaselineCache": "pinned by bench/: bench/main.go empties the LP cache between passes",
	"lp.BaselineCacheSize":        "pinned by bench/: bench/ counts the LP problems a workload solved",
	"sim.Loop.Stop":               "pinned by bench/: bench/layers.go ends its kernel loops from inside an event",
	"sim.Loop.Run":                "pinned by bench/: bench/layers.go drains its kernel and netem loops; runs stop at a horizon with RunUntil",
	"mptcp.Scheduler.Name":        "pinned by bench/: bench/pipeline.go's summarise labels a run by it; the sweep labels by Options.Scheduler",
	"fleet.Coordinator.Run":       "pinned by bench/: bench/workloads.go's fleet pass is the only caller of the coordinator",
	"packet.MakeAddr":             "pinned by bench/: bench/layers.go addresses its synthetic frames",
	"netem.Network.AddrOf":        "pinned by bench/: bench/layers.go addresses a path's end hosts",
	"packet.Arena.GetUDP":         "pinned by bench/: bench/layers.go's transit and queueFull frames are UDP datagrams",
	"topo.Paper":                  "pinned by bench/: bench/layers.go builds its mptcp and lp benchmarks on it; every run builds PaperScenario",
	"stats.Online.Add":            "pinned by bench/: bench/layers.go times it as stats.ns_per_online_add; no production code aggregates online",
	"route.TagTable.NextLink":     "pinned by bench/: bench/layers.go times it as route.ns_per_lookup_*; networks take whole routes from TagTable.Route",
}

// reflectedMethods are the method names the standard library finds by
// reflection or through an interface no production code needs to name.
var reflectedMethods = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON"}

// TestEveryFuncIsReached is the function-level reachability pass as a guard.
// It fails naming any package-level function or method declared in the
// module's non-test files outside bench/ that no production code refers to,
// unless funcAllow gives the reason it stays. A function's references from
// inside its own body do not count. main and init are entry points.
//
// A method is also reached through an interface its receiver type, T or *T,
// implements and that has a method of its name, when the standard library
// declares that interface (the library calls it) or production code refers
// to that interface method, a call through a type parameter included. A
// forwarder's call does not count: that is a method of the same name on a
// type implementing the same interface, as a fan-out sink's Close calling
// each sink's Close. The names in reflectedMethods are always reached.
func TestEveryFuncIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, fset := productionPkgs(t)
	declared := map[*types.Func]token.Pos{}
	reached := map[*types.Func]bool{}
	called := map[*types.Func]bool{} // interface methods production code refers to
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name].(*types.Func)
					if fd.Recv != nil || fd.Name.Name != "main" && fd.Name.Name != "init" {
						declared[self] = fd.Pos()
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					switch {
					case !ok || fn.Origin() == self:
					case ifaceOf(fn) == nil:
						reached[fn.Origin()] = true
					case self == nil || self.Name() != fn.Name() || !implements(self, ifaceOf(fn)):
						called[fn] = true
					}
					return true
				})
			}
		}
	}
	via := append(stdMethods(pkgs), slices.Collect(maps.Keys(called))...)
	viaIface := func(fn *types.Func) bool {
		return slices.Contains(reflectedMethods, fn.Name()) || slices.ContainsFunc(via, func(m *types.Func) bool {
			return m.Name() == fn.Name() && implements(fn, ifaceOf(m))
		})
	}
	var bad []string
	seen := map[string]bool{}
	for fn, pos := range declared {
		name := funcName(fn)
		seen[name] = true
		_, allowed := funcAllow[name]
		switch {
		case reached[fn] || fn.Signature().Recv() != nil && viaIface(fn):
			if allowed {
				bad = append(bad, fmt.Sprintf("%s is reached: drop it from funcAllow", name))
			}
		case !allowed:
			bad = append(bad, fmt.Sprintf("%s: %s is never referred to by production code", fset.Position(pos), name))
		}
	}
	classes := []string{"test seam", "test reference", "test observation point", "pinned by bench/"}
	for name, why := range funcAllow {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("funcAllow names %s, which is not declared", name))
		}
		if class, _, ok := strings.Cut(why, ":"); !ok || !slices.Contains(classes, class) {
			bad = append(bad, fmt.Sprintf("funcAllow[%s] gives no class and reason", name))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// ifaceOf is the interface fn is a method of, or nil for a concrete method
// or a function. A method called through a type parameter is a method of
// the parameter's constraint.
func ifaceOf(fn *types.Func) *types.Interface {
	if recv := fn.Signature().Recv(); recv != nil {
		it, _ := recv.Type().Underlying().(*types.Interface)
		return it
	}
	return nil
}

// implements reports whether method fn's receiver type, T or *T,
// implements it.
func implements(fn *types.Func, it *types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return types.Implements(typ, it) || types.Implements(types.NewPointer(typ), it)
}

// stdMethods is every method of the exported interfaces the standard
// library packages the production code imports, directly or not, declare.
func stdMethods(pkgs []checkedPkg) []*types.Func {
	var out []*types.Func
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
		if strings.HasPrefix(pkg.Path(), "mptcpsim") {
			return
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || isGeneric(tn.Type()) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := range it.NumMethods() {
					out = append(out, it.Method(i))
				}
			}
		}
	}
	for _, p := range pkgs {
		walk(p.pkg)
	}
	return out
}

// isGeneric reports a generic named type, which no receiver implements
// uninstantiated.
func isGeneric(typ types.Type) bool {
	n, ok := typ.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// fusedOp matches one fused multiply-add in the compiler's -S listing:
// the source position and the arm64 instruction.
var fusedOp = regexp.MustCompile(`\(([^()]+\.go:\d+)\)\t(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\t`)

// TestNoFusedMultiplyAdd keeps floating-point results the same on every
// architecture. Go lets a compiler fuse x*y+z into one instruction that
// rounds once, and arm64 does (FMADDD and its kin) where amd64 rounds twice,
// so a fused expression can make a run measure or a generator draw
// differently there. An explicit float64(x*y) rounds the product and forbids
// the fusion. The test cross-compiles the module for arm64 with -S and fails
// naming every fused instruction outside bench/.
func TestNoFusedMultiplyAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the module for arm64")
	}
	cmd := exec.Command("go", "build", "-gcflags=-S", "./...")
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build for arm64: %v\n%s", err, out)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	for _, m := range fusedOp.FindAllStringSubmatch(string(out), -1) {
		site := strings.TrimPrefix(m[1], root+string(filepath.Separator))
		if strings.HasPrefix(site, "bench"+string(filepath.Separator)) || seen[site+m[2]] {
			continue
		}
		seen[site+m[2]] = true
		bad = append(bad, fmt.Sprintf("%s: %s fuses a multiply-add on arm64: round the product with float64(x*y)", site, m[2]))
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// funcName names a function pkg.F and a method pkg.Type.M, pkg being the
// import path inside the module ("mptcpsim" for the root, "cmd/sweep",
// "lp" for internal/lp).
func funcName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "mptcpsim/"), "internal/")
	recv := fn.Signature().Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	return pkg + "." + typ.(*types.Named).Obj().Name() + "." + fn.Name()
}

// fieldUse counts one declared field's mentions; name is pkg.Type.field.
// json reports a json tag other than "-".
type fieldUse struct {
	name          string
	writes, reads int
	json          bool
}

// checkedPkg is one type-checked production package.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// productionPkgs type-checks the module's production packages — every
// non-test file outside bench/ — in the dependency order `go list -deps`
// prints them in. Packages outside the module come from the export data the
// same `go list -export` call built.
func productionPkgs(t *testing.T) ([]checkedPkg, *token.FileSet) {
	cmd := exec.Command("go", "list", "-json=ImportPath,Dir,GoFiles,Export,Standard", "-export", "-deps", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []checkedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			Standard                bool
		}
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		if p.ImportPath == "mptcpsim/bench" {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		pkgs = append(pkgs, checkedPkg{pkg, files, info})
	}
	return pkgs, fset
}

// fieldUses counts each declared field of the production packages' writes
// and reads; JSON-tagged fields encoding/json reads or writes are dropped.
func fieldUses(t *testing.T) (map[*types.Var]*fieldUse, *token.FileSet) {
	pkgs, fset := productionPkgs(t)
	byVar := map[*types.Var]*fieldUse{}
	for _, p := range pkgs {
		declareFields(p.pkg.Name(), p.files, p.info, byVar)
		countFieldUses(p.files, p.info, byVar)
	}
	encoded := jsonFields(pkgs)
	for v, u := range byVar {
		if u.json && encoded[v] {
			delete(byVar, v)
		}
	}
	return byVar, fset
}

// jsonSinks maps each encoding/json entry point to the argument it encodes
// or decodes into.
var jsonSinks = map[string]int{
	"encoding/json.Marshal":           0,
	"encoding/json.MarshalIndent":     0,
	"encoding/json.Unmarshal":         1,
	"(*encoding/json.Encoder).Encode": 0,
	"(*encoding/json.Decoder).Decode": 0,
}

// jsonFields returns the struct fields encoding/json reads or writes: the
// exported fields, json:"-" ones excepted, of every struct type reachable
// from a value handed to a jsonSinks entry point or returned by an
// expvar.Func. A function that hands one of its own interface-typed
// parameters to a sink is a sink for that parameter, so a wrapper such as
// decodeStrict(r io.Reader, v any) passes its callers' types through.
func jsonFields(pkgs []checkedPkg) map[*types.Var]bool {
	sinks := maps.Clone(jsonSinks)
	var roots []types.Type
	for grew := true; grew; {
		grew, roots = false, roots[:0]
		for _, p := range pkgs {
			for _, f := range p.files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn := p.info.Defs[fd.Name].(*types.Func)
					params := fn.Type().(*types.Signature).Params()
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if tv := p.info.Types[call.Fun]; tv.IsType() && tv.Type.String() == "expvar.Func" {
							roots = append(roots, returnedTypes(p.info, call.Args[0])...)
							return true
						}
						i, ok := sinks[calleeName(p.info, call)]
						if !ok || i >= len(call.Args) {
							return true
						}
						arg := ast.Unparen(call.Args[i])
						if t := p.info.TypeOf(arg); !types.IsInterface(t) {
							roots = append(roots, t)
							return true
						}
						id, _ := arg.(*ast.Ident)
						for j := range params.Len() {
							if _, known := sinks[fn.FullName()]; !known && id != nil && p.info.Uses[id] == params.At(j) {
								sinks[fn.FullName()], grew = j, true
							}
						}
						return true
					})
				}
			}
		}
	}
	encoded := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		case *types.Struct:
			for i := range u.NumFields() {
				f := u.Field(i)
				if (f.Exported() || f.Embedded()) && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
					encoded[f.Origin()] = true
					walk(f.Type())
				}
			}
		}
	}
	for _, t := range roots {
		walk(t)
	}
	return encoded
}

// calleeName is the full name of the function or method call invokes, ""
// for anything else.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// returnedTypes lists the types of the values the function literal e
// returns, nested literals' returns excepted.
func returnedTypes(info *types.Info, e ast.Expr) []types.Type {
	lit, ok := e.(*ast.FuncLit)
	if !ok {
		return nil
	}
	var out []types.Type
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				out = append(out, info.TypeOf(r))
			}
		}
		return true
	})
	return out
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declareFields enters every named field of every struct type written in
// files, embedded ones excepted.
func declareFields(pkg string, files []*ast.File, info *types.Info, byVar map[*types.Var]*fieldUse) {
	enter := func(typ string, st *ast.StructType) {
		for _, fl := range st.Fields.List {
			tagged := false
			if fl.Tag != nil {
				name, ok := reflect.StructTag(strings.Trim(fl.Tag.Value, "`")).Lookup("json")
				tagged = ok && name != "-"
			}
			for _, id := range fl.Names {
				if v, ok := info.Defs[id].(*types.Var); ok && id.Name != "_" {
					byVar[v] = &fieldUse{name: pkg + "." + typ + "." + id.Name, json: tagged}
				}
			}
		}
	}
	for _, f := range files {
		// Structs are named by the nearest enclosing type declaration, or by
		// the function they are local to.
		var walk func(n ast.Node, typ string)
		walk = func(n ast.Node, typ string) {
			ast.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.TypeSpec:
					if m != n {
						walk(m, m.Name.Name)
						return false
					}
				case *ast.FuncDecl:
					if m != n {
						walk(m, m.Name.Name+"()")
						return false
					}
				case *ast.StructType:
					enter(typ, m)
				}
				return true
			})
		}
		walk(f, "")
	}
}

// countFieldUses classifies every mention of a declared field in files.
func countFieldUses(files []*ast.File, info *types.Info, byVar map[*types.Var]*fieldUse) {
	fieldOf := func(e ast.Expr) *types.Var {
		var obj types.Object
		switch e := e.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				obj = sel.Obj()
			}
		case *ast.Ident: // a composite-literal key
			obj = info.Uses[e]
		}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	// readAll counts a read of every field of t, a struct compared or hashed
	// as a whole.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		if st, ok := t.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				if u := byVar[st.Field(i).Origin()]; u != nil {
					u.reads++
				}
				readAll(st.Field(i).Type())
			}
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok && tv.IsType() {
			readAll(m.Key())
		}
	}
	written := map[ast.Expr]bool{} // selectors in write position
	// write marks e, an lvalue, and every field on the way to it that holds
	// the written memory by value.
	var write func(e ast.Expr, alsoRead bool)
	write = func(e ast.Expr, alsoRead bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v := fieldOf(e); v != nil {
				if u := byVar[v]; u != nil {
					u.writes++
				}
				written[e] = !alsoRead
				if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
					write(e.X, true)
				}
			}
		case *ast.IndexExpr:
			if _, arr := info.TypeOf(e.X).Underlying().(*types.Array); arr {
				write(e.X, true)
			}
		}
	}
	for _, f := range files {
		inDefaults := false
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				inDefaults = n.Name.Name == "withDefaults"
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE && !inDefaults {
					for _, l := range n.Lhs {
						write(l, false)
					}
				}
			case *ast.IncDecStmt:
				write(n.X, false)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X, true)
				}
			case *ast.SliceExpr:
				if _, arr := info.TypeOf(n.X).Underlying().(*types.Array); arr {
					write(n.X, true)
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(info.TypeOf(n.X))
				}
			case *ast.CallExpr:
				// x.f.M() with M on a pointer receiver takes &x.f.
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
						if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
							if _, isPtr := info.TypeOf(sel.X).Underlying().(*types.Pointer); !isPtr {
								write(sel.X, true)
							}
						}
					}
				}
			case *ast.CompositeLit:
				st, ok := types.Unalias(info.TypeOf(n)).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, el := range n.Elts {
					var v *types.Var
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						v = fieldOf(kv.Key)
					} else {
						v = st.Field(i).Origin()
					}
					if u := byVar[v]; u != nil {
						u.writes++
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel] {
				if u := byVar[fieldOf(sel)]; u != nil {
					u.reads++
				}
			}
			return true
		})
	}
}
