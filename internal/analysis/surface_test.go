package analysis_test

import (
	"bufio"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vread/internal/analysis"
)

// surfaceAllow is the committed allow list of exported internal/ names that
// no non-test code calls: one "name reason..." line each, # starts a comment.
const surfaceAllow = "surface_allow.txt"

// TestExportedSurface keeps the test-only surface gone: every exported
// function or method under internal/ must have a non-test caller in the
// module, in bench/ (its own module), or be listed in surface_allow.txt
// with a reason. An allow entry that is now called, or names nothing, is
// stale and fails too.
func TestExportedSurface(t *testing.T) {
	root := filepath.Join("..", "..")
	mod, err := analysis.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := analysis.Load(filepath.Join(root, "bench"), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	unused, declared := testOnlySurface("vread/internal/", mod, bench)
	allow := readAllow(t, surfaceAllow)
	for _, name := range sortedKeys(unused) {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: %s has no non-test caller; delete it, read it from an export_test.go, or list it in %s with a reason",
				unused[name], name, surfaceAllow)
		}
	}
	for _, name := range sortedKeys(allow) {
		switch {
		case !declared[name]:
			t.Errorf("%s:%d: stale entry %s: no such exported function or method", surfaceAllow, allow[name], name)
		case unused[name] == "":
			t.Errorf("%s:%d: stale entry %s: it now has a non-test caller", surfaceAllow, allow[name], name)
		}
	}
}

// TestExportedSurfaceFixture shows the scan is not vacuous: in the surface
// fixture, TestOnly (called only from a _test.go) is reported; Used, called
// from non-test code, and Impl.Hook, called through an interface, are not.
func TestExportedSurfaceFixture(t *testing.T) {
	pkgs, err := analysis.Load(".", []string{"./testdata/src/surface"})
	if err != nil {
		t.Fatal(err)
	}
	unused, declared := testOnlySurface("vread/internal/analysis/testdata/src/", pkgs)
	got := strings.Join(sortedKeys(unused), " ")
	if want := "surface.TestOnly"; got != want {
		t.Errorf("reported %q, want %q", got, want)
	}
	for _, name := range []string{"surface.Used", "surface.Impl.Hook", "surface.Hooker.Hook"} {
		if !declared[name] {
			t.Errorf("%s not declared: the fixture no longer exercises it", name)
		}
	}
}

// testOnlySurface scans the declaring packages (those of the first program
// whose path starts with prefix) and returns every exported function or
// method no loaded non-test file references, keyed by its name relative to
// prefix, with its position; and the set of all such names declared. A
// method also counts as called when its receiver implements an interface
// whose method of that name is referenced. Programs are matched by name,
// since each Load type-checks its own universe.
func testOnlySurface(prefix string, programs ...[]*analysis.Package) (unused map[string]string, declared map[string]bool) {
	used := map[string]bool{}
	called := map[string][]*types.Interface{} // interface method name -> interfaces
	for _, pkgs := range programs {
		for _, p := range pkgs {
			for _, obj := range p.TypesInfo.Uses {
				fn, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				if fn.Pkg() != nil {
					used[funcKey(fn)] = true
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						called[fn.Name()] = append(called[fn.Name()], it)
					}
				}
			}
		}
	}
	unused, declared = map[string]string{}, map[string]bool{}
	consider := func(p *analysis.Package, fn *types.Func, recv types.Type) {
		key := funcKey(fn)
		if !fn.Exported() || key == "" {
			return
		}
		name := strings.TrimPrefix(key, prefix)
		declared[name] = true
		if used[key] || recv != nil && implementsCalled(recv, called[fn.Name()]) {
			return
		}
		unused[name] = p.Fset.Position(fn.Pos()).String()
	}
	for _, p := range programs[0] {
		if !strings.HasPrefix(p.Path, prefix) {
			continue
		}
		scope := p.Types.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func:
				consider(p, obj, nil)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if it, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						consider(p, it.ExplicitMethod(i), nil)
					}
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					consider(p, named.Method(i), named)
				}
			}
		}
	}
	return unused, declared
}

// funcKey names fn "pkg.Func" or "pkg.Type.Method", or "" for a method of
// an unnamed type.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// implementsCalled reports whether *recv implements one of the interfaces.
// Each Load type-checks its own universe, so signatures are compared as
// strings qualified by full package path rather than by types.Implements.
func implementsCalled(recv types.Type, ifaces []*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(recv))
	qual := func(p *types.Package) string { return p.Path() }
	for _, it := range ifaces {
		ok := it.NumMethods() > 0
		for i := 0; ok && i < it.NumMethods(); i++ {
			m := it.Method(i)
			sel := mset.Lookup(m.Pkg(), m.Name())
			ok = sel != nil && sigString(sel.Type(), qual) == sigString(m.Type(), qual)
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString renders a signature's parameter and result types, without names.
func sigString(t types.Type, qual types.Qualifier) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual) + ",")
		}
		b.WriteString(";")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// readAllow parses the allow list into name -> line number.
func readAllow(t *testing.T, path string) map[string]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]int{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		switch {
		case len(fields) == 0:
		case len(fields) == 1:
			t.Errorf("%s:%d: %s has no reason", path, line, fields[0])
		default:
			if _, dup := allow[fields[0]]; dup {
				t.Errorf("%s:%d: duplicate entry %s", path, line, fields[0])
			}
			allow[fields[0]] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
