package msync_test

// End-to-end test of the msync CLI: builds the binary, serves a directory
// over loopback TCP, and synchronizes an outdated replica directory.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"msync/internal/corpus"
	"msync/internal/dirio"
)

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "msync-bin")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/msync")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build CLI (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestCLISyncDirectories(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)

	v1, v2 := corpus.GCCProfile(0.04).Generate(5)
	serverDir, clientDir := t.TempDir(), t.TempDir()
	if err := dirio.ApplyChanges(serverDir, v2.Map(), nil); err != nil {
		t.Fatal(err)
	}
	if err := dirio.ApplyChanges(clientDir, v1.Map(), nil); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", serverDir)
	var serverOut bytes.Buffer
	server.Stdout, server.Stderr = &serverOut, &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()

	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened: %s", serverOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	client := exec.Command(bin, "-connect", addr, "-dir", clientDir)
	out, err := client.CombinedOutput()
	if err != nil {
		t.Fatalf("client failed: %v\n%s", err, out)
	}

	got, err := loadDir(clientDir)
	if err != nil {
		t.Fatal(err)
	}
	want := v2.Map()
	if len(got) != len(want) {
		t.Fatalf("client has %d files, want %d\noutput:\n%s", len(got), len(want), out)
	}
	for path, data := range want {
		if !bytes.Equal(got[path], data) {
			t.Fatalf("content mismatch for %s", path)
		}
	}
	t.Logf("CLI sync output:\n%s", out)
}

func TestCLIDryRunLeavesDirUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	serverDir, clientDir := t.TempDir(), t.TempDir()
	if err := dirio.ApplyChanges(serverDir, map[string][]byte{"f.txt": []byte("new version")}, nil); err != nil {
		t.Fatal(err)
	}
	orig := map[string][]byte{"f.txt": []byte("old version"), "stale.txt": []byte("x")}
	if err := dirio.ApplyChanges(clientDir, orig, nil); err != nil {
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

	out, err := exec.Command(bin, "-connect", addr, "-dir", clientDir, "-dry").CombinedOutput()
	if err != nil {
		t.Fatalf("dry run failed: %v\n%s", err, out)
	}
	got, _ := loadDir(clientDir)
	if len(got) != 2 || string(got["f.txt"]) != "old version" {
		t.Fatalf("dry run modified the directory: %v", got)
	}
	if !bytes.Contains(out, []byte("total")) {
		t.Fatalf("dry run did not report costs:\n%s", out)
	}
}

// TestCLIFlagValidation pins the CLI's argument validation: bogus values
// must produce a one-line error and a non-zero exit before any network or
// disk work starts, never a hang or a silent reinterpretation.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
		want string // substring the error line must contain
	}{
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
		{"negative retry", []string{"-retry", "-2"}, "-retry"},
		{"negative cache-mem", []string{"-cache-mem", "-5"}, "-cache-mem"},
		{"malformed debug-addr", []string{"-debug-addr", "not an address"}, "-debug-addr"},
		{"unknown log-level", []string{"-log-level", "loud"}, "-log-level"},
		{"serve and connect", []string{"-serve", ":0", "-connect", "x:1"}, "mutually exclusive"},
		{"snapshot without store-dir", []string{"-snapshot"}, "-store-dir"},
		{"negative store-budget", []string{"-store-budget", "-3"}, "-store-budget"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// -connect points nowhere; validation must reject the flags
			// before any dial is attempted.
			args := append([]string{"-connect", "127.0.0.1:1", "-dir", dir}, c.args...)
			if c.name == "serve and connect" {
				args = c.args
			}
			out, err := exec.Command(bin, args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("err = %v, want non-zero exit\noutput: %s", err, out)
			}
			if code := ee.ExitCode(); code != 2 {
				t.Fatalf("exit code = %d, want 2\noutput: %s", code, out)
			}
			msg := strings.TrimRight(string(out), "\n")
			if strings.Contains(msg, "\n") {
				t.Fatalf("error not a single line:\n%s", out)
			}
			if !strings.Contains(msg, c.want) {
				t.Fatalf("error %q does not mention %q", msg, c.want)
			}
		})
	}
}

// TestCLIObservability exercises the opt-in observability surface end to
// end: the server exposes /metrics and /debug/pprof via -debug-addr, and the
// client writes per-phase JSONL spans via -trace-out while logging through
// -log-level.
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	serverDir, clientDir := t.TempDir(), t.TempDir()
	if err := dirio.ApplyChanges(serverDir, map[string][]byte{"a.txt": bytes.Repeat([]byte("server data "), 400)}, nil); err != nil {
		t.Fatal(err)
	}
	if err := dirio.ApplyChanges(clientDir, map[string][]byte{"a.txt": bytes.Repeat([]byte("client data "), 390)}, nil); err != nil {
		t.Fatal(err)
	}

	addr, dbgAddr := freePort(t), freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", serverDir, "-debug-addr", dbgAddr, "-log-level", "debug")
	var serverOut bytes.Buffer
	server.Stdout, server.Stderr = &serverOut, &serverOut
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
			t.Fatalf("server never listened: %s", serverOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(bin, "-connect", addr, "-dir", clientDir,
		"-trace-out", tracePath, "-log-level", "info").CombinedOutput()
	if err != nil {
		t.Fatalf("client failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("session done")) {
		t.Fatalf("client log missing session summary:\n%s", out)
	}

	// The trace file holds per-phase spans ending in a session summary.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	phases := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev struct {
			Phase string `json:"phase"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line not JSON: %v\n%s", err, sc.Text())
		}
		phases[ev.Phase]++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	for _, want := range []string{"handshake", "session"} {
		if phases[want] == 0 {
			t.Fatalf("trace missing %q span: %v", want, phases)
		}
	}

	// The debug endpoint reports the completed session.
	resp, err := http.Get("http://" + dbgAddr + "/metrics")
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if n, _ := metrics["msync_sessions_total"].(float64); n < 1 {
		t.Fatalf("msync_sessions_total = %v, want >= 1\n%s", metrics["msync_sessions_total"], body)
	}
	if resp, err := http.Get("http://" + dbgAddr + "/debug/pprof/cmdline"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint: %v (resp %v)", err, resp)
	} else {
		resp.Body.Close()
	}
}

// TestCLIPush: a server started with -allow-push and -cache-dir writes a push
// into its -dir through its signature cache. The replica ends equal to the
// source, the cache holds entries, and a second push of the same tree
// replaces no file.
func TestCLIPush(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	replicaDir, sourceDir, cacheDir := t.TempDir(), t.TempDir(), t.TempDir()
	if err := dirio.ApplyChanges(replicaDir, map[string][]byte{"doc.txt": []byte(fmt.Sprint("v1 ", bytes.Repeat([]byte("x"), 2000)))}, nil); err != nil {
		t.Fatal(err)
	}
	newContent := map[string][]byte{
		"doc.txt": append([]byte("v2 "), bytes.Repeat([]byte("x"), 2000)...),
		"new.txt": []byte("added"),
	}
	if err := dirio.ApplyChanges(sourceDir, newContent, nil); err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", replicaDir, "-allow-push", "-cache-dir", cacheDir)
	stderr, err := server.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	adopted := make(chan string, 2)
	go func() {
		lines := bufio.NewScanner(stderr)
		for lines.Scan() {
			if strings.Contains(lines.Text(), "adopted pushed update") {
				adopted <- lines.Text()
			}
		}
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

	push := func() map[string]os.FileInfo {
		t.Helper()
		out, err := exec.Command(bin, "-connect", addr, "-dir", sourceDir, "-push").CombinedOutput()
		if err != nil {
			t.Fatalf("push failed: %v\n%s", err, out)
		}
		// The server writes the push after the session's last frame.
		select {
		case <-adopted:
		case <-time.After(10 * time.Second):
			t.Fatal("the server never adopted the push")
		}
		got, err := loadDir(replicaDir)
		if err != nil || len(got) != len(newContent) {
			t.Fatalf("replica holds %v (%v), want %v", pathsOf(got), err, pathsOf(newContent))
		}
		stats := make(map[string]os.FileInfo)
		for rel, want := range newContent {
			if !bytes.Equal(got[rel], want) {
				t.Fatalf("replica's %s is not the source's", rel)
			}
			if stats[rel], err = os.Stat(filepath.Join(replicaDir, rel)); err != nil {
				t.Fatal(err)
			}
		}
		return stats
	}
	first := push()
	if entries, err := os.ReadDir(cacheDir); err != nil || len(entries) == 0 {
		t.Fatalf("the server's -cache-dir holds %d entries (%v) after a push", len(entries), err)
	}
	for rel, fi := range push() {
		if !os.SameFile(fi, first[rel]) {
			t.Errorf("a second push of the same tree replaced %s", rel)
		}
	}
}

// TestCLIVersionedStore drives the -store-dir / -snapshot / -base-version
// flags end to end: an offline snapshot cuts v1, a serving process over an
// updated tree cuts v2 at startup, and an announcing client converges and is
// told the version to announce next time.
func TestCLIVersionedStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	serverDir, clientDir, storeDir := t.TempDir(), t.TempDir(), t.TempDir()
	oldTree := map[string][]byte{
		"keep.txt": bytes.Repeat([]byte("stable content "), 200),
		"mod.txt":  bytes.Repeat([]byte("version one body "), 150),
	}
	if err := dirio.ApplyChanges(serverDir, oldTree, nil); err != nil {
		t.Fatal(err)
	}
	if err := dirio.ApplyChanges(clientDir, oldTree, nil); err != nil {
		t.Fatal(err)
	}

	// Offline snapshot of the current tree: v1.
	out, err := exec.Command(bin, "-snapshot", "-dir", serverDir, "-store-dir", storeDir).CombinedOutput()
	if err != nil {
		t.Fatalf("-snapshot failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("v1")) {
		t.Fatalf("-snapshot did not report v1:\n%s", out)
	}

	// The tree moves on; a serving process cuts v2 at startup.
	newTree := map[string][]byte{
		"keep.txt": oldTree["keep.txt"],
		"mod.txt":  append(append([]byte{}, oldTree["mod.txt"]...), []byte("edited tail\n")...),
		"new.txt":  []byte("a brand new file\n"),
	}
	if err := dirio.ApplyChanges(serverDir, map[string][]byte{"mod.txt": newTree["mod.txt"], "new.txt": newTree["new.txt"]}, nil); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", serverDir, "-store-dir", storeDir)
	var serverOut bytes.Buffer
	server.Stdout, server.Stderr = &serverOut, &serverOut
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
			t.Fatalf("server never listened: %s", serverOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The client holds v1 and announces it: the journal answers, the client
	// converges, and the report names v2 for next time.
	out, err = exec.Command(bin, "-connect", addr, "-dir", clientDir, "-base-version", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("client failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("-base-version 2")) {
		t.Fatalf("client report missing the next base version:\n%s", out)
	}
	got, err := loadDir(clientDir)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range newTree {
		if !bytes.Equal(got[path], want) {
			t.Fatalf("content mismatch for %s after journal sync", path)
		}
	}
	if len(got) != len(newTree) {
		t.Fatalf("client has %d files, want %d", len(got), len(newTree))
	}

	// Announcing the now-current version again is a no-op sync.
	out, err = exec.Command(bin, "-connect", addr, "-dir", clientDir, "-base-version", "2").CombinedOutput()
	if err != nil {
		t.Fatalf("repeat client failed: %v\n%s", err, out)
	}
}

func TestCLIPublishMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the CLI")
	}
	bin := buildCLI(t)
	serverDir, readerDir, artifactDir := t.TempDir(), t.TempDir(), t.TempDir()
	v1 := map[string][]byte{
		"keep.txt":    bytes.Repeat([]byte("stable content "), 200),
		"mod.txt":     bytes.Repeat([]byte("version one body "), 150),
		"sub/old.txt": []byte("will be deleted\n"),
	}
	if err := dirio.ApplyChanges(serverDir, v1, nil); err != nil {
		t.Fatal(err)
	}
	if err := dirio.ApplyChanges(readerDir, v1, nil); err != nil {
		t.Fatal(err)
	}

	// Publish v1 offline.
	out, err := exec.Command(bin, "-dir", serverDir, "-publish-dir", artifactDir).CombinedOutput()
	if err != nil {
		t.Fatalf("-publish-dir failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("v1")) {
		t.Fatalf("publish did not report v1:\n%s", out)
	}
	// Re-publishing the unchanged tree stays at v1.
	out, err = exec.Command(bin, "-dir", serverDir, "-publish-dir", artifactDir).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("v1")) {
		t.Fatalf("idempotent re-publish: %v\n%s", err, out)
	}

	// The tree moves on; a publish-serve process cuts v2, then serves HTTP.
	v2 := map[string][]byte{
		"keep.txt": v1["keep.txt"],
		"mod.txt":  append(append([]byte{}, v1["mod.txt"]...), []byte("edited tail\n")...),
		"new.txt":  []byte("a brand new file\n"),
	}
	if err := dirio.ApplyChanges(serverDir, map[string][]byte{"mod.txt": v2["mod.txt"], "new.txt": v2["new.txt"]}, []string{"sub/old.txt"}); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	server := exec.Command(bin, "-serve", addr, "-dir", serverDir, "-publish-dir", artifactDir)
	var serverOut bytes.Buffer
	server.Stdout, server.Stderr = &serverOut, &serverOut
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/health")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("publish server never listened: %s", serverOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Reader at v1 announces its base and rides the delta path.
	out, err = exec.Command(bin, "-dir", readerDir, "-from-url", "http://"+addr, "-base-version", "1", "-json").CombinedOutput()
	if err != nil {
		t.Fatalf("-from-url failed: %v\n%s", err, out)
	}
	var res struct {
		Version   uint64 `json:"version"`
		DeltaPath bool   `json:"delta_path"`
	}
	line := out[:bytes.IndexByte(out, '\n')]
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatalf("bad -json output %q: %v", line, err)
	}
	if res.Version != 2 || !res.DeltaPath {
		t.Fatalf("reader result: %+v\n%s", res, out)
	}
	got, err := loadDir(readerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(v2) {
		t.Fatalf("reader has %d files, want %d", len(got), len(v2))
	}
	for path, want := range v2 {
		if !bytes.Equal(got[path], want) {
			t.Fatalf("content mismatch for %s after publish sync", path)
		}
	}
}
