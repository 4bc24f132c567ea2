package msync_test

// Exec-level smoke tests for the auxiliary binaries and every example:
// they must build, run, and produce their expected outputs.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"msync/internal/dirio"
	"msync/internal/wire"
)

func goRun(t *testing.T, timeout time.Duration, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Env = os.Environ()
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, &buf
	done := make(chan error, 1)
	if err := cmd.Start(); err != nil {
		t.Skipf("cannot exec go: %v", err)
	}
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("go run %v: %v\n%s", args, err, buf.String())
		}
	case <-time.After(timeout):
		cmd.Process.Kill()
		t.Fatalf("go run %v timed out\n%s", args, buf.String())
	}
	return buf.String()
}

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the examples")
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"./examples/quickstart"}, "transferred"},
		{[]string{"./examples/webmirror", "-pages", "60", "-nights", "2"}, "total over 2 nights"},
		{[]string{"./examples/backup"}, "msync saves"},
		{[]string{"./examples/adaptive"}, "200-file collection"},
		{[]string{"./examples/crawler"}, "signature-based total"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.args[0], func(t *testing.T) {
			t.Parallel()
			out := goRun(t, 3*time.Minute, c.args...)
			if !strings.Contains(out, c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

func TestMkcorpusWritesLoadableTrees(t *testing.T) {
	if testing.Short() {
		t.Skip("execs mkcorpus")
	}
	dir := t.TempDir()
	out := goRun(t, 2*time.Minute, "./cmd/mkcorpus", "-profile", "gcc", "-scale", "0.05", "-out", dir)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("unexpected output: %s", out)
	}
	v1, err := loadDir(filepath.Join(dir, "v1"))
	if err != nil || len(v1) == 0 {
		t.Fatalf("v1 unloadable: %v", err)
	}
	v2, err := loadDir(filepath.Join(dir, "v2"))
	if err != nil || len(v2) == 0 {
		t.Fatalf("v2 unloadable: %v", err)
	}
	// Web profile, two nights.
	webDir := t.TempDir()
	goRun(t, 2*time.Minute, "./cmd/mkcorpus", "-profile", "web", "-scale", "0.02", "-days", "0,1", "-out", webDir)
	n0, err := loadDir(filepath.Join(webDir, "night00"))
	if err != nil || len(n0) == 0 {
		t.Fatalf("night00 unloadable: %v", err)
	}
}

func TestMsbenchListAndCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("execs msbench")
	}
	out := goRun(t, 2*time.Minute, "./cmd/msbench", "-list")
	for _, id := range []string{"fig6.1", "table6.2", "ablate.decomp"} {
		if !strings.Contains(out, id) {
			t.Fatalf("-list missing %s:\n%s", id, out)
		}
	}
	csv := goRun(t, 3*time.Minute, "./cmd/msbench", "-exp", "ablate.decomp", "-scale", "0.1", "-csv")
	if !strings.Contains(csv, "decomposable on,") {
		t.Fatalf("CSV output unexpected:\n%s", csv)
	}
}

func TestCLIJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("execs the CLI")
	}
	bin := buildCLI(t)
	serverDir, clientDir := t.TempDir(), t.TempDir()
	if err := dirio.ApplyChanges(serverDir, map[string][]byte{"a": bytes.Repeat([]byte("data "), 500)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := dirio.ApplyChanges(clientDir, map[string][]byte{"a": bytes.Repeat([]byte("data "), 499)}, nil); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", serverDir)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never listened")
		}
		time.Sleep(50 * time.Millisecond)
	}
	out, err := exec.Command(bin, "-connect", addr, "-dir", clientDir, "-dry", "-json").Output()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	var m map[string]int64
	if err := json.Unmarshal(out, &m); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if m["total_bytes"] <= 0 || m["roundtrips"] <= 0 {
		t.Fatalf("implausible costs: %v", m)
	}
}

// docCode returns what a markdown document sets as code: the contents of its
// fenced blocks and of its inline `spans`, one entry per block line or span.
func docCode(md string) []string {
	var code []string
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			code = append(code, line)
			continue
		}
		for i, span := range strings.Split(line, "`") {
			if i%2 == 1 {
				code = append(code, span)
			}
		}
	}
	return code
}

// withoutSection cuts the section whose heading contains title, up to the next
// heading of the same or a higher level.
func withoutSection(md, title string) string {
	var out []string
	level := 0
	for _, line := range strings.Split(md, "\n") {
		if hashes := len(line) - len(strings.TrimLeft(line, "#")); hashes > 0 && strings.HasPrefix(line[hashes:], " ") {
			switch {
			case level == 0 && strings.Contains(line, title):
				level = hashes
			case level > 0 && hashes <= level:
				level = 0
			}
		}
		if level == 0 {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDocsReferToExistingThings: in the documents a reader follows, every
// `make <target>` is a Makefile target, every `msbench -<flag>` a flag msbench
// has, every `-exp <id>` an experiment it lists, and every code span that is a
// .go, .json or .md path names a file of the repository. EXPERIMENTS.md's
// "Retired reports" is exempt: it names what was deleted, on purpose. And
// PROTOCOL.md's frame table is the frame types `internal/wire` declares: every
// Frame* constant has its row, under the name FrameName prints, and no row
// names a frame that does not exist.
func TestDocsReferToExistingThings(t *testing.T) {
	if testing.Short() {
		t.Skip("execs msbench")
	}
	checkFrameTable(t)
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	flags := map[string]bool{}
	usage, _ := exec.Command("go", "run", "./cmd/msbench", "-h").CombinedOutput() // -h exits 0 or 2 by Go version
	for _, m := range regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(string(usage), -1) {
		flags[m[1]] = true
	}
	ids := map[string]bool{}
	for _, id := range strings.Fields(goRun(t, 2*time.Minute, "./cmd/msbench", "-list")) {
		ids[id] = true
	}
	if len(targets) == 0 || len(flags) == 0 || len(ids) == 0 {
		t.Fatalf("nothing to check against: %d targets, %d flags, %d ids", len(targets), len(flags), len(ids))
	}
	// Docs name files from the root (`internal/core/scan_test.go`) or from
	// the package under discussion (`stream.go`): a path exists if some file's
	// path ends in it.
	suffixes := map[string]bool{}
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if err == nil && !d.IsDir() {
			for p := filepath.ToSlash(path); ; {
				suffixes[p] = true
				_, rest, ok := strings.Cut(p, "/")
				if !ok {
					break
				}
				p = rest
			}
		}
		return nil
	})

	var (
		makeRE    = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
		msbenchRE = regexp.MustCompile(`\bmsbench((?: +[^ |;&>]+)*)`)
		expRE     = regexp.MustCompile(`-exp ([a-z0-9][a-z0-9.]*)`)
		pathRE    = regexp.MustCompile(`^(?:\./)?([A-Za-z0-9][A-Za-z0-9_./-]*\.(?:go|json|md))(?::\d+)?$`)
	)
	for _, doc := range []string{"README.md", "DESIGN.md", "PROTOCOL.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range docCode(withoutSection(string(raw), "Retired reports")) {
			for _, m := range makeRE.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` is not a Makefile target (in %q)", doc, m[1], code)
				}
			}
			for _, m := range msbenchRE.FindAllStringSubmatch(code, -1) {
				for _, arg := range strings.Fields(m[1]) {
					name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
					if strings.HasPrefix(arg, "-") && !flags[name] {
						t.Errorf("%s: msbench has no flag %s (in %q)", doc, arg, code)
					}
				}
			}
			for _, m := range expRE.FindAllStringSubmatch(code, -1) {
				if !ids[m[1]] {
					t.Errorf("%s: `-exp %s` is not an experiment msbench lists (in %q)", doc, m[1], code)
				}
			}
			if m := pathRE.FindStringSubmatch(code); m != nil && !suffixes[m[1]] {
				t.Errorf("%s: no file `%s` in the repository", doc, m[1])
			}
		}
	}
}

// checkFrameTable holds PROTOCOL.md's frame table (rows `| id | NAME | …`) to
// the Frame* constants of internal/wire/wire.go, which count up from 1.
func checkFrameTable(t *testing.T) {
	t.Helper()
	src, err := parser.ParseFile(token.NewFileSet(), "internal/wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, d := range src.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(name.Name, "Frame") {
						frames++
					}
				}
			}
		}
	}
	if frames < 18 {
		t.Fatalf("found %d Frame* constants in internal/wire/wire.go", frames)
	}
	doc, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[int]string{}
	for _, m := range regexp.MustCompile(`(?m)^\| (\d+) \| ([A-Z_]+) \|`).FindAllStringSubmatch(string(doc), -1) {
		id, _ := strconv.Atoi(m[1])
		rows[id] = m[2]
		if id < 1 || id > frames || wire.FrameName(byte(id)) != m[2] {
			t.Errorf("PROTOCOL.md: frame table row %d %s, but wire.FrameName(%d) is %s", id, m[2], id, wire.FrameName(byte(id)))
		}
	}
	for id := 1; id <= frames; id++ {
		if name := wire.FrameName(byte(id)); rows[id] == "" {
			t.Errorf("PROTOCOL.md: no frame table row for frame type %d %s", id, name)
		}
	}
}

// reachAllow names the functions TestNoUnreachableCode lets stay although
// only their own package's tests reach them. Twelve entries at most, none of
// them a feature.
var reachAllow = map[string]string{
	"msync/internal/core.verifyHash":             "reference: verifyGroupSums' pooled loop is held to it",
	"msync/internal/merkle.Reconcile":            "reference: both ends of a tree descent in one loop, what the session's descent is held to",
	"msync/internal/vcdiff.Decode":               "reference: the vcdiff baseline's byte counts are of streams this decodes back",
	"msync/internal/pubsig.WithPublisherMetrics": "observation seam: tests read a publish's hashing and artifact bytes through it",
	"msync/internal/pubsig.WithServerMetrics":    "observation seam: tests count a reader's origin requests through it",
	"msync/internal/pubsig.WithModTime":          "observation seam: pins Last-Modified so replicas and tests agree on it",
	"msync/internal/wire.FrameWriter.Flushes":    "observation seam: a side's half-roundtrip count",
}

// A reachPkg is one package of the module, type-checked with its in-package
// test files: non-test declarations are what the walk judges, test files
// only contribute roots in other packages.
type reachPkg struct {
	ImportPath, Dir, Name              string
	GoFiles, TestGoFiles, XTestGoFiles []string

	files, tests []*ast.File
	info         *types.Info
	types        *types.Package
}

// reachImporter type-checks the module's packages on demand, so every package
// sees the same objects, and leaves the standard library to the source
// importer.
type reachImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*reachPkg
}

func (im *reachImporter) Import(path string) (*types.Package, error) {
	p := im.pkgs[path]
	if p == nil {
		return im.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	parse := func(names []string) ([]*ast.File, error) {
		var out []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(im.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			out = append(out, f)
		}
		return out, nil
	}
	var err error
	if p.files, err = parse(p.GoFiles); err != nil {
		return nil, err
	}
	if p.tests, err = parse(p.TestGoFiles); err != nil {
		return nil, err
	}
	p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	p.types, err = (&types.Config{Importer: im}).Check(path, im.fset, append(p.files[:len(p.files):len(p.files)], p.tests...), p.info)
	return p.types, err
}

// reachKey names a function or method across type-checker instances:
// import path, receiver's type name if any, name.
func reachKey(f *types.Func) string {
	f = f.Origin()
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := types.Unalias(recv.Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
			return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
		return "" // an interface's method: resolved by name
	}
	return f.Pkg().Path() + "." + f.Name()
}

// TestNoUnreachableCode: every function and method declared outside _test.go
// files is reachable from a main, an init, a package-level initialiser or
// package msync's exported API (its exported functions, and the exported
// methods of the types it exports or aliases), or is used by a _test.go file
// of a different package (test infrastructure Go forces into non-test files),
// or is in reachAllow. A call through an interface reaches every method of
// that name on a type the reachable code mentions; so does satisfying an
// interface of the standard library, which may call it.
func TestNoUnreachableCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,Name,GoFiles,TestGoFiles,XTestGoFiles", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	// No cgo variants of net and os/user: the source importer would run the
	// cgo tool for them.
	defer func(was bool) { build.Default.CgoEnabled = was }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	im := &reachImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*reachPkg{}}
	var pkgs []*reachPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(reachPkg)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		im.pkgs[p.ImportPath] = p
	}

	type node struct {
		n    ast.Node
		info *types.Info
	}
	var (
		decls     = map[string]node{}     // every non-test function, by reachKey
		typeSpecs = map[string]node{}     // every non-test named type, by path.Name
		methods   = map[string][]string{} // type key -> its methods' reachKeys
		stdCalled = map[string][]string{} // type key -> methods an interface of the standard library has
		reached   = map[string]bool{}
		liveTypes = map[string]bool{}
		byName    = map[string]bool{"Unwrap": true, "Is": true, "As": true} // unnamed interfaces of package errors
		work      []node
	)
	inModule := func(o types.Object) bool { return o.Pkg() != nil && im.pkgs[o.Pkg().Path()] != nil }
	reachFunc := func(key string) {
		if d, ok := decls[key]; ok && !reached[key] {
			reached[key] = true
			work = append(work, d)
		}
	}
	methodName := func(key string) string { return key[strings.LastIndexByte(key, '.')+1:] }
	reachType := func(key string) {
		if liveTypes[key] {
			return
		}
		liveTypes[key] = true
		if spec, ok := typeSpecs[key]; ok {
			work = append(work, spec)
		}
		for _, m := range stdCalled[key] {
			reachFunc(m)
		}
		for _, m := range methods[key] {
			if byName[methodName(m)] {
				reachFunc(m)
			}
		}
	}
	reachName := func(name string) {
		if byName[name] {
			return
		}
		byName[name] = true
		for tk := range liveTypes {
			for _, m := range methods[tk] {
				if methodName(m) == name {
					reachFunc(m)
				}
			}
		}
	}
	use := func(o types.Object) {
		switch o := o.(type) {
		case *types.Func:
			if key := reachKey(o); key == "" {
				reachName(o.Name())
			} else if inModule(o) {
				reachFunc(key)
			}
		case *types.TypeName:
			if inModule(o) {
				reachType(o.Pkg().Path() + "." + o.Name())
			}
		}
	}

	// Type-check everything and index the declarations. Roots go on the
	// work list: main, init, package msync's exported functions, every
	// package-level initialiser.
	stdPkgs := map[*types.Package]bool{}
	var addStd func(p *types.Package)
	addStd = func(p *types.Package) {
		if im.pkgs[p.Path()] != nil || stdPkgs[p] {
			return
		}
		stdPkgs[p] = true
		for _, q := range p.Imports() {
			addStd(q)
		}
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.ImportPath); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, q := range p.types.Imports() {
			addStd(q)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					key := reachKey(fn)
					decls[key] = node{d, p.info}
					switch {
					case d.Recv != nil:
						tk := key[:strings.LastIndexByte(key, '.')]
						methods[tk] = append(methods[tk], key)
					case d.Name.Name == "init", d.Name.Name == "main" && p.Name == "main", p.ImportPath == "msync" && fn.Exported():
						reachFunc(key)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							typeSpecs[p.ImportPath+"."+s.Name.Name] = node{s, p.info}
						case *ast.ValueSpec:
							work = append(work, node{s, p.info})
						}
					}
				}
			}
		}
	}
	// Methods the standard library may call through one of its interfaces.
	var stdIfaces []*types.Interface
	for sp := range stdPkgs {
		for _, name := range sp.Scope().Names() {
			if tn, ok := sp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !tn.IsAlias() && tn.Type().(*types.Named).TypeParams() == nil {
					stdIfaces = append(stdIfaces, it)
				}
			}
		}
	}
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range pkgs {
		for _, name := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || tn.Type().(*types.Named).TypeParams() != nil {
				continue
			}
			tk := p.ImportPath + "." + name
			for _, it := range stdIfaces {
				if !types.Implements(tn.Type(), it) && !types.Implements(types.NewPointer(tn.Type()), it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					o, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, p.types, it.Method(i).Name())
					if fn, ok := o.(*types.Func); ok && inModule(fn) {
						stdCalled[tk] = append(stdCalled[tk], reachKey(fn))
					}
				}
			}
		}
	}
	// What package msync exports or aliases is API, with its exported methods.
	api := im.pkgs["msync"].types.Scope()
	for _, name := range api.Names() {
		if tn, ok := api.Lookup(name).(*types.TypeName); ok && tn.Exported() {
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok && inModule(n.Obj()) {
				tk := n.Obj().Pkg().Path() + "." + n.Obj().Name()
				reachType(tk)
				if it, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						reachName(it.Method(i).Name()) // a caller's to call
					}
				}
				for _, m := range methods[tk] {
					if ast.IsExported(methodName(m)) {
						reachFunc(m)
					}
				}
			}
		}
	}
	// What a test file of another package uses.
	for _, p := range pkgs {
		if len(p.XTestGoFiles) > 0 {
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			var xfiles []*ast.File
			for _, name := range p.XTestGoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				xfiles = append(xfiles, f)
			}
			if _, err := (&types.Config{Importer: im}).Check(p.ImportPath+"_test", fset, xfiles, info); err != nil {
				t.Fatalf("type-checking %s_test: %v", p.ImportPath, err)
			}
			for _, o := range info.Uses {
				if o.Pkg() != nil && o.Pkg().Path() != p.ImportPath {
					use(o)
				}
			}
		}
		for _, f := range p.tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if o := p.info.Uses[id]; o != nil && o.Pkg() != nil && o.Pkg().Path() != p.ImportPath {
						use(o)
					}
				}
				return true
			})
		}
	}
	for key, why := range reachAllow {
		if _, ok := decls[key]; !ok {
			t.Errorf("reachAllow names %s (%s), which does not exist", key, why)
		}
		reachFunc(key)
	}

	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(n.n, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if o := n.info.Uses[id]; o != nil {
					use(o)
				}
			}
			return true
		})
	}

	var dead []string
	for key := range decls {
		if !reached[key] {
			dead = append(dead, strings.TrimPrefix(key, "msync/internal/"))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no command, API, example, experiment, benchmark or other package's test reaches it", d)
	}
	if len(reachAllow) > 12 {
		t.Errorf("reachAllow has %d entries, at most 12 allowed", len(reachAllow))
	}
}
