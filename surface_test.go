package ecarray_test

// The surface gate: every declaration under internal/ must be reachable from
// code that ships. It type-checks the module with the standard library alone
// (go/build selects files, go/types checks them, the "source" importer reads
// the standard library), builds a reference graph whose nodes are the
// package-level funcs, types, vars and consts and the methods under
// internal/, and walks it from the roots: every non-test file outside
// internal/ (the facade, cmd/, examples/, benchmarks/) and every init func.
//
// A declaration is live when a root or a live declaration refers to it from
// outside the declaration itself, so a type that only its own methods and
// constructor mention is dead. A method is also live when live code converts
// a type whose method set holds it to an interface that has it, and a
// conversion to any interface keeps the methods fmt, errors, encoding/json
// and io look up at run time (String, Error, MarshalJSON, WriteTo, ...) on the
// converted type and on every type reachable through its fields, as well as
// those of every interface the module's code asserts to. Each build tag set
// CI compiles is checked, and a name live under either counts as live.

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// surfaceTagSets are the build tag sets CI compiles the module with.
var surfaceTagSets = [][]string{nil, {"purego"}}

// surfaceAllow lists the dead declarations kept on purpose; what they refer
// to is kept with them. A reason is either "item N: ..." citing an open
// ROADMAP.md item that will give the name a caller, or "oracle: TestName ..."
// naming a test in another package that checks something through it. An
// entry whose name is live or gone, whose item is not open, or whose oracle
// test does not call it fails the gate.
var surfaceAllow = map[string]string{
	"rs.Code.UpdateParity":         "item 19: parity-delta updates give it a caller or delete it",
	"service.MemStore.Keys":        "item 8: promoted to ShardStore.List for the orphan sweep",
	"netsim.Network.LoopbackBytes": "item 4: the core and workload golden digests fold it in; only the re-capture may drop it",
	"ssd.Device.CheckInvariants":   "oracle: TestWALWrapAround checks the FTL's bookkeeping after store's WAL wraps",
	"store.Store.Exists":           "oracle: TestReplicatedRecoveryCopiesObjects checks each acting OSD holds the restored replica",
}

const surfaceMaxAllow = 6

// The standard library is type-checked from source once per test binary and
// shared by every check.
var (
	surfaceFset = token.NewFileSet()
	surfaceStd  = importer.ForCompiler(surfaceFset, "source", nil)
)

func TestSurfaceGate(t *testing.T) {
	res, err := checkSurface(".", surfaceTagSets, mapKeys(surfaceAllow))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allowProblems(".", res, surfaceAllow) {
		t.Error(p)
	}
	var dead []string
	for _, k := range res.dead() {
		dead = append(dead, k+" "+res.pos[k])
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations under internal/ have no live non-test caller; delete them, or move test helpers into a _test.go file:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// surface is the outcome of checkSurface over every tag set.
type surface struct {
	pos  map[string]string // gated declaration → file:line
	pkg  map[string]string // gated declaration → its package directory
	live map[string]bool   // reachable under at least one tag set
	kept map[string]bool   // live, or reachable from a kept name
	used map[string]bool   // referenced by some other declaration or root (a flat "has a use" rule)
}

// dead returns the gated declarations neither live nor kept, sorted.
func (s *surface) dead() []string {
	var out []string
	for k := range s.pos {
		if !s.kept[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// checkSurface runs the reachability check over the module rooted at dir
// once per tag set and merges the results. The keep names are extra roots
// for kept, not for live.
func checkSurface(dir string, tagSets [][]string, keep []string) (*surface, error) {
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	s := &surface{pos: map[string]string{}, pkg: map[string]string{}, live: map[string]bool{}, kept: map[string]bool{}, used: map[string]bool{}}
	for _, tags := range tagSets {
		g, err := loadGraph(dir, modPath, tags)
		if err != nil {
			return nil, fmt.Errorf("tags %v: %w", tags, err)
		}
		for k, n := range g.nodes {
			s.pos[k], s.pkg[k] = n.pos, n.pkg
		}
		uses := func(n *node) {
			for _, r := range n.refs {
				s.used[r] = true
			}
		}
		uses(g.root)
		for _, n := range g.nodes {
			uses(n)
		}
		for k := range g.reach() {
			s.live[k] = true
		}
		for k := range g.reach(keep...) {
			s.kept[k] = true
		}
	}
	return s, nil
}

func mapKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func modulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", errors.New("go.mod has no module line")
}

// node is one gated declaration, or the synthetic root that stands for all
// non-test code outside internal/ plus every init func.
type node struct {
	pos, pkg string
	refs     []string     // gated declarations it names
	convs    []conversion // values it converts to interfaces
}

type conversion struct {
	from types.Type
	to   *types.Interface
}

type graph struct {
	nodes   map[string]*node
	root    *node
	lookups []*types.Interface // interfaces whose methods are found at run time
}

// reach resolves conversions into method references and returns the
// declarations reachable from the root and from the extra roots.
func (g *graph) reach(extra ...string) map[string]bool {
	live := map[string]bool{}
	work := []*node{g.root}
	mark := func(k string) {
		if n, ok := g.nodes[k]; ok && !live[k] {
			live[k] = true
			work = append(work, n)
		}
	}
	for _, k := range extra {
		mark(k)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range n.refs {
			mark(r)
		}
		for _, c := range n.convs {
			for _, k := range g.methodsKept(c) {
				mark(k)
			}
		}
	}
	return live
}

// methodsKept names the methods a conversion keeps: the target interface's
// methods on the converted type, and the run-time lookups on it and on every
// type its fields reach.
func (g *graph) methodsKept(c conversion) []string {
	var out []string
	keep := func(t types.Type, iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if f, ok := lookupMethod(t, m); ok {
				out = append(out, declKey(f))
			}
		}
	}
	keep(c.from, c.to)
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		for _, l := range g.lookups {
			if types.Implements(t, l) {
				keep(t, l)
			}
		}
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
			for i := 0; i < u.NumFields(); i++ {
				walk(u.Field(i).Type())
			}
		}
		if _, isPtr := t.(*types.Pointer); !isPtr {
			if _, isNamed := t.(*types.Named); isNamed {
				walk(types.NewPointer(t))
			}
		}
	}
	walk(c.from)
	return out
}

func lookupMethod(t types.Type, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
	f, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	return f.Origin(), true
}

// declKey names a declaration as "pkg.Name" or "pkg.Recv.Name", where pkg is
// its package's path below internal/.
func declKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	_, pkg, ok := strings.Cut(obj.Pkg().Path(), "/internal/")
	if !ok {
		return ""
	}
	if f, isFunc := obj.(*types.Func); isFunc {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			named, isNamed := t.(*types.Named)
			if !isNamed {
				return "" // an interface's method
			}
			return pkg + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // a local or a field
	}
	return pkg + "." + obj.Name()
}

// loadGraph type-checks every package of the module under one tag set and
// builds its reference graph.
func loadGraph(dir, modPath string, tags []string) (*graph, error) {
	// CI builds for linux/amd64; pinning it keeps the answer the same on
	// any host.
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	ctx.BuildTags = tags
	dirs := map[string]*build.Package{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := ctx.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}

	type checked struct {
		pkg   *types.Package
		files []*ast.File
		info  *types.Info
	}
	done := map[string]*checked{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		bp, ok := dirs[path]
		if !ok {
			return surfaceStd.Import(path)
		}
		if c := done[path]; c != nil {
			return c.pkg, nil
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(surfaceFset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Instances: map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
		pkg, err := conf.Check(path, surfaceFset, files, info)
		if err != nil {
			return nil, err
		}
		done[path] = &checked{pkg, files, info}
		return pkg, nil
	}
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			return nil, err
		}
	}

	g := &graph{nodes: map[string]*node{}, root: &node{}}
	lookups, err := runtimeLookups()
	if err != nil {
		return nil, err
	}
	g.lookups = lookups
	internal := modPath + "/internal/"
	for _, p := range paths {
		c := done[p]
		w := &refWalker{info: c.info, lookups: map[*types.Interface]bool{}}
		if !strings.HasPrefix(p+"/", internal) {
			for _, f := range c.files {
				w.walk(g.root, f)
			}
		} else {
			for _, f := range c.files {
				for _, d := range f.Decls {
					w.decl(g, dir, d)
				}
			}
		}
		for l := range w.lookups {
			g.lookups = append(g.lookups, l)
		}
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// runtimeLookups returns the standard library interfaces that fmt, errors,
// encoding/json and io assert to at run time.
func runtimeLookups() ([]*types.Interface, error) {
	const src = `package lookups
import ("encoding"; "encoding/json"; "fmt"; "io")
type T struct {
	fmt.Stringer; fmt.GoStringer; fmt.Formatter; error
	json.Marshaler; json.Unmarshaler; encoding.TextMarshaler; encoding.TextUnmarshaler
	io.ReaderFrom; io.WriterTo
	u1 interface{ Unwrap() error }; u2 interface{ Unwrap() []error }
	is interface{ Is(error) bool }; as interface{ As(any) bool }
}`
	f, err := parser.ParseFile(surfaceFset, "lookups.go", src, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: surfaceStd}).Check("lookups", surfaceFset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	st := pkg.Scope().Lookup("T").Type().Underlying().(*types.Struct)
	out := make([]*types.Interface, st.NumFields())
	for i := range out {
		out[i] = st.Field(i).Type().Underlying().(*types.Interface)
	}
	return out, nil
}

// refWalker collects what one package's declarations refer to.
type refWalker struct {
	info    *types.Info
	lookups map[*types.Interface]bool // interfaces the package asserts to
}

// decl adds the gated nodes one top-level declaration defines; init funcs
// feed the root.
func (w *refWalker) decl(g *graph, dir string, d ast.Decl) {
	add := func(obj types.Object, syntax ast.Node) {
		k := declKey(obj)
		if k == "" || obj.Name() == "_" {
			return
		}
		p := surfaceFset.Position(obj.Pos())
		rel, err := filepath.Rel(dir, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		n := &node{pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line), pkg: filepath.Dir(rel)}
		if v, ok := obj.(*types.Var); ok {
			n.refs = append(n.refs, namedKey(v.Type()))
		} else if c, ok := obj.(*types.Const); ok {
			n.refs = append(n.refs, namedKey(c.Type()))
		}
		w.walk(n, syntax)
		refs := n.refs[:0]
		for _, r := range n.refs {
			if r != k && r != "" {
				refs = append(refs, r)
			}
		}
		n.refs = refs
		g.nodes[k] = n
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			w.walk(g.root, d)
			return
		}
		add(w.info.Defs[d.Name], d)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(w.info.Defs[s.Name], s)
			case *ast.ValueSpec:
				for _, name := range s.Names {
					add(w.info.Defs[name], s)
				}
			}
		}
	}
}

func namedKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return declKey(n.Origin().Obj())
	}
	return ""
}

// walk appends to n every gated declaration syntax names, every value it
// converts to an interface, and records the interfaces it asserts to.
func (w *refWalker) walk(n *node, syntax ast.Node) {
	var funcs []*types.Signature // enclosing function signatures, innermost last
	var stack []ast.Node
	ast.Inspect(syntax, func(x ast.Node) bool {
		if x == nil {
			if top := stack[len(stack)-1]; isFunc(top) {
				funcs = funcs[:len(funcs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		switch x := x.(type) {
		case *ast.FuncDecl:
			funcs = append(funcs, w.info.Defs[x.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			funcs = append(funcs, w.info.Types[x].Type.(*types.Signature))
		case *ast.Ident:
			if obj := w.info.Uses[x]; obj != nil {
				n.refs = append(n.refs, declKey(originOf(obj)))
			}
			if inst, ok := w.info.Instances[x]; ok {
				w.instance(n, x, inst)
			}
		case *ast.CallExpr:
			w.call(n, x)
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN {
				w.assign(n, x.Lhs, x.Rhs)
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				to := w.info.Types[x.Type].Type
				for _, v := range x.Values {
					w.conv(n, w.typeOf(v), to)
				}
			}
		case *ast.ReturnStmt:
			if len(funcs) > 0 {
				w.results(n, x.Results, funcs[len(funcs)-1].Results())
			}
		case *ast.CompositeLit:
			w.composite(n, x)
		case *ast.SendStmt:
			if ch, ok := w.typeOf(x.Chan).Underlying().(*types.Chan); ok {
				w.conv(n, w.typeOf(x.Value), ch.Elem())
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				l, r := w.typeOf(x.X), w.typeOf(x.Y)
				w.conv(n, l, r)
				w.conv(n, r, l)
			}
		case *ast.IndexExpr:
			if m, ok := w.typeOf(x.X).Underlying().(*types.Map); ok {
				w.conv(n, w.typeOf(x.Index), m.Key())
			}
		case *ast.TypeAssertExpr:
			if x.Type != nil {
				w.asserted(w.info.Types[x.Type].Type)
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range x.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					w.asserted(w.info.Types[e].Type)
				}
			}
		}
		return true
	})
}

func isFunc(x ast.Node) bool {
	switch x.(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		return true
	}
	return false
}

func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok {
			return n.Origin().Obj()
		}
	}
	return obj
}

func (w *refWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

func (w *refWalker) asserted(t types.Type) {
	if t == nil {
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && !iface.Empty() {
		w.lookups[iface] = true
	}
}

// conv records a value of type from used where type to is expected.
func (w *refWalker) conv(n *node, from, to types.Type) {
	if from == nil || to == nil || from == types.Typ[types.Invalid] || types.IsInterface(from) {
		return
	}
	if _, isParam := from.(*types.TypeParam); isParam {
		return
	}
	if iface, ok := to.Underlying().(*types.Interface); ok {
		n.convs = append(n.convs, conversion{from, iface})
	}
}

func (w *refWalker) call(n *node, x *ast.CallExpr) {
	fun := w.info.Types[x.Fun]
	if fun.IsType() {
		for _, a := range x.Args {
			w.conv(n, w.typeOf(a), fun.Type)
		}
		return
	}
	if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
		if b, isBuiltin := w.info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() == "append" && len(x.Args) > 1 && !x.Ellipsis.IsValid() {
				if s, ok := w.typeOf(x.Args[0]).Underlying().(*types.Slice); ok {
					for _, a := range x.Args[1:] {
						w.conv(n, w.typeOf(a), s.Elem())
					}
				}
			}
			return
		}
	}
	sig, ok := fun.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if len(x.Args) == 1 && params.Len() > 1 {
		if tup, ok := w.typeOf(x.Args[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < params.Len(); i++ {
				w.conv(n, tup.At(i).Type(), params.At(i).Type())
			}
			return
		}
	}
	for i, a := range x.Args {
		var to types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			to = params.At(params.Len() - 1).Type()
			if !x.Ellipsis.IsValid() {
				to = to.(*types.Slice).Elem()
			}
		case i < params.Len():
			to = params.At(i).Type()
		}
		w.conv(n, w.typeOf(a), to)
	}
}

func (w *refWalker) assign(n *node, lhs, rhs []ast.Expr) {
	if len(lhs) == len(rhs) {
		for i := range lhs {
			w.conv(n, w.typeOf(rhs[i]), w.typeOf(lhs[i]))
		}
		return
	}
	if tup, ok := w.typeOf(rhs[0]).(*types.Tuple); ok {
		for i := 0; i < tup.Len() && i < len(lhs); i++ {
			w.conv(n, tup.At(i).Type(), w.typeOf(lhs[i]))
		}
	}
}

func (w *refWalker) results(n *node, exprs []ast.Expr, res *types.Tuple) {
	if len(exprs) == res.Len() {
		for i, e := range exprs {
			w.conv(n, w.typeOf(e), res.At(i).Type())
		}
		return
	}
	if len(exprs) == 1 {
		if tup, ok := w.typeOf(exprs[0]).(*types.Tuple); ok {
			for i := 0; i < tup.Len() && i < res.Len(); i++ {
				w.conv(n, tup.At(i).Type(), res.At(i).Type())
			}
		}
	}
}

func (w *refWalker) composite(n *node, x *ast.CompositeLit) {
	t := w.typeOf(x)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, e := range x.Elts {
		kv, keyed := e.(*ast.KeyValueExpr)
		v := e
		if keyed {
			v = kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if keyed {
				for j := 0; j < u.NumFields(); j++ {
					if id, ok := kv.Key.(*ast.Ident); ok && u.Field(j).Name() == id.Name {
						w.conv(n, w.typeOf(v), u.Field(j).Type())
					}
				}
			} else if i < u.NumFields() {
				w.conv(n, w.typeOf(v), u.Field(i).Type())
			}
		case *types.Slice:
			w.conv(n, w.typeOf(v), u.Elem())
		case *types.Array:
			w.conv(n, w.typeOf(v), u.Elem())
		case *types.Map:
			if keyed {
				w.conv(n, w.typeOf(kv.Key), u.Key())
			}
			w.conv(n, w.typeOf(v), u.Elem())
		}
	}
}

// instance treats each type argument of a generic instantiation as converted
// to its type parameter's constraint.
func (w *refWalker) instance(n *node, id *ast.Ident, inst types.Instance) {
	var params *types.TypeParamList
	switch t := originOf(w.info.Uses[id]).Type().(type) {
	case *types.Signature:
		params = t.TypeParams()
	case *types.Named:
		params = t.TypeParams()
	}
	for i := 0; params != nil && i < params.Len() && i < inst.TypeArgs.Len(); i++ {
		w.conv(n, inst.TypeArgs.At(i), params.At(i).Constraint())
	}
}

// allowProblems checks the allowlist against the gate's result and ROADMAP.md.
func allowProblems(dir string, s *surface, allow map[string]string) []string {
	var out []string
	if len(allow) > surfaceMaxAllow {
		out = append(out, fmt.Sprintf("allowlist has %d entries; at most %d", len(allow), surfaceMaxAllow))
	}
	open, err := openItems(filepath.Join(dir, "ROADMAP.md"))
	if err != nil {
		return append(out, err.Error())
	}
	itemRE := regexp.MustCompile(`^item (\d+): `)
	oracleRE := regexp.MustCompile(`^oracle: (Test\w+) `)
	for _, k := range mapKeys(allow) {
		reason := allow[k]
		switch _, exists := s.pos[k]; {
		case !exists:
			out = append(out, fmt.Sprintf("allowlist: %s no longer exists", k))
			continue
		case s.live[k]:
			out = append(out, fmt.Sprintf("allowlist: %s is live now; drop its entry", k))
			continue
		}
		if m := itemRE.FindStringSubmatch(reason); m != nil {
			if !open[m[1]] {
				out = append(out, fmt.Sprintf("allowlist: %s cites item %s, which is not an open ROADMAP.md item", k, m[1]))
			}
		} else if m := oracleRE.FindStringSubmatch(reason); m != nil {
			if !oracleCalls(dir, s.pkg[k], m[1], k[strings.LastIndex(k, ".")+1:]) {
				out = append(out, fmt.Sprintf("allowlist: %s names oracle %s, but no test of that name outside %s calls it", k, m[1], s.pkg[k]))
			}
		} else {
			out = append(out, fmt.Sprintf("allowlist: %s has reason %q; want \"item N: ...\" or \"oracle: TestName ...\"", k, reason))
		}
	}
	return out
}

// openItems returns the numbers of the "### N." headings under ROADMAP.md's
// "## Open items".
func openItems(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	open := map[string]bool{}
	heading := regexp.MustCompile(`^### (\d+)\.`)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## Open items")
		} else if m := heading.FindStringSubmatch(line); in && m != nil {
			open[m[1]] = true
		}
	}
	return open, sc.Err()
}

// oracleCalls reports whether a test function named test, in a _test.go file
// outside package directory pkg, calls a method or function named name.
func oracleCalls(dir, pkg, test, name string) bool {
	found := false
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || found {
			return err
		}
		if d.IsDir() {
			if path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(dir, path)
		if !strings.HasSuffix(path, "_test.go") || filepath.Dir(rel) == pkg {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != test || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(x ast.Node) bool {
				if sel, ok := x.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
					found = true
				}
				return !found
			})
		}
		return nil
	})
	return found
}

// TestSurfaceGateRules runs the checker over testdata/surface, a module with
// one declaration per rule, and its allowlist check over that module's
// ROADMAP.md.
func TestSurfaceGateRules(t *testing.T) {
	const dir = "testdata/surface"
	res, err := checkSurface(dir, surfaceTagSets, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDead := []string{
		"a.ChainA", "a.Closed", "a.Label.Unused", "a.NewOrphan", "a.Oracle",
		"a.Orphan", "a.Orphan.Bump", "a.Pending", "a.Square.Perimeter",
		"a.UsedByTest", "a.chainB", "a.chainC",
	}
	if got := res.dead(); !reflect.DeepEqual(got, wantDead) {
		t.Errorf("dead = %v\nwant %v", got, wantDead)
	}
	for _, k := range []string{"a.Square.Area", "a.Label.String", "a.UsedByCmd", "a.Kernel", "a.tagHelper"} {
		if !res.live[k] {
			t.Errorf("%s must be live", k)
		}
	}
	// A flat "has a use" rule keeps Orphan alive: its constructor and its
	// method refer to it.
	if !res.used["a.Orphan"] {
		t.Error("the flat rule must count a.Orphan as used; the fixture no longer tells the two rules apart")
	}
	// tagHelper is live only through the purego build.
	def, err := checkSurface(dir, [][]string{nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if def.live["a.tagHelper"] {
		t.Error("a.tagHelper must be dead without the purego tag")
	}

	for name, c := range map[string]struct {
		allow map[string]string
		want  string // substring of the one problem expected; "" for none
	}{
		"open item":   {map[string]string{"a.Pending": "item 3: open"}, ""},
		"closed item": {map[string]string{"a.Closed": "item 2: closed"}, "not an open ROADMAP.md item"},
		"live name":   {map[string]string{"a.UsedByCmd": "item 3: open"}, "is live now"},
		"gone name":   {map[string]string{"a.Gone": "item 3: open"}, "no longer exists"},
		"oracle":      {map[string]string{"a.Oracle": "oracle: TestUsesOracle reads it"}, ""},
		"bad oracle":  {map[string]string{"a.Oracle": "oracle: TestUsedByTest reads it"}, "no test of that name"},
		"no reason":   {map[string]string{"a.Pending": "kept for later"}, "want \"item N: ...\""},
		"too many": {map[string]string{
			"a.Pending": "item 3: a", "a.Closed": "item 3: b", "a.Oracle": "item 3: c", "a.ChainA": "item 3: d",
			"a.chainB": "item 3: e", "a.chainC": "item 3: f", "a.Orphan": "item 3: g",
		}, "at most 6"},
	} {
		probs := allowProblems(dir, res, c.allow)
		switch {
		case c.want == "" && len(probs) > 0:
			t.Errorf("%s: unexpected problems %q", name, probs)
		case c.want != "" && (len(probs) != 1 || !strings.Contains(probs[0], c.want)):
			t.Errorf("%s: problems %q, want one containing %q", name, probs, c.want)
		}
	}
}
