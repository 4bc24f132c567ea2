package msync_test

// Exec-level smoke tests for the auxiliary binaries and every example:
// they must build, run, and produce their expected outputs.

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"msync/internal/dirio"
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
	v1, err := dirio.Load(filepath.Join(dir, "v1"))
	if err != nil || len(v1) == 0 {
		t.Fatalf("v1 unloadable: %v", err)
	}
	v2, err := dirio.Load(filepath.Join(dir, "v2"))
	if err != nil || len(v2) == 0 {
		t.Fatalf("v2 unloadable: %v", err)
	}
	// Web profile, two nights.
	webDir := t.TempDir()
	goRun(t, 2*time.Minute, "./cmd/mkcorpus", "-profile", "web", "-scale", "0.02", "-days", "0,1", "-out", webDir)
	n0, err := dirio.Load(filepath.Join(webDir, "night00"))
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
	if err := dirio.Apply(serverDir, nil, map[string][]byte{"a": bytes.Repeat([]byte("data "), 500)}); err != nil {
		t.Fatal(err)
	}
	if err := dirio.Apply(clientDir, nil, map[string][]byte{"a": bytes.Repeat([]byte("data "), 499)}); err != nil {
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
// "Retired reports" is exempt: it names what was deleted, on purpose.
func TestDocsReferToExistingThings(t *testing.T) {
	if testing.Short() {
		t.Skip("execs msbench")
	}
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
	// the package under discussion (`mux.go`): a path exists if some file's
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
