package dirio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// op is one flush or namespace change the writers made: fsync and syncfs
// name the descriptor's file, rename names the temporary file and its
// target, remove the path removed.
type op struct {
	kind, path, to string
}

// recordOps routes fsync, syncfs, rename and remove through a recorder for
// the rest of the test and returns the log they append to. A directory's or
// file's path, and a name joined to its directory's, stand for the node.
func recordOps(t *testing.T) *[]op {
	t.Helper()
	var mu sync.Mutex
	var log []op
	note := func(o op) {
		mu.Lock()
		log = append(log, o)
		mu.Unlock()
	}
	origFsync, origSyncfs, origRename, origRemove := fsync, syncfs, rename, remove
	fsync = func(n node) error { note(op{kind: "fsync", path: n.path}); return origFsync(n) }
	syncfs = func(n node) error { note(op{kind: "syncfs", path: n.path}); return origSyncfs(n) }
	rename = func(d node, from, to string) error {
		note(op{kind: "rename", path: filepath.Join(d.path, from), to: filepath.Join(d.path, to)})
		return origRename(d, from, to)
	}
	remove = func(d node, name string, dir bool) error {
		note(op{kind: "remove", path: filepath.Join(d.path, name)})
		return origRemove(d, name, dir)
	}
	t.Cleanup(func() { fsync, syncfs, rename, remove = origFsync, origSyncfs, origRename, origRemove })
	return &log
}

// dirsUnder is the paths of the directories rels under root.
func dirsUnder(root string, rels ...string) []string {
	dirs := make([]string, len(rels))
	for i, rel := range rels {
		dirs[i] = filepath.Join(root, filepath.FromSlash(rel))
	}
	return dirs
}

func isTemp(path string) bool { return strings.HasPrefix(filepath.Base(path), TempPrefix) }

// count is how many ops of kind the log holds.
func count(log []op, kind string) int {
	n := 0
	for _, o := range log {
		if o.kind == kind {
			n++
		}
	}
	return n
}

// checkFlushOrder asserts the durable writer's contract on one ApplyChanges
// log: a batch fsyncs every temporary file before its first rename and
// renames them all before the next batch's first fsync, no batch holds more
// than maxOpenTemps files, and every directory in dirs is fsynced after the
// last rename or removal.
func checkFlushOrder(t *testing.T, log []op, files int, dirs []string) {
	t.Helper()
	fsynced := map[string]bool{}
	pending, renaming, last := 0, false, -1
	for i, o := range log {
		switch {
		case o.kind == "fsync" && isTemp(o.path):
			if renaming && pending != 0 {
				t.Fatalf("op %d: %s fsynced among its batch's renames", i, o.path)
			}
			renaming = false
			fsynced[o.path] = true
			if pending++; pending > maxOpenTemps {
				t.Fatalf("op %d: a batch of more than %d files", i, maxOpenTemps)
			}
		case o.kind == "rename":
			if !fsynced[o.path] || pending == 0 {
				t.Fatalf("op %d: %s renamed to %s before its fsync", i, o.path, o.to)
			}
			renaming = true
			pending--
			last = i
		case o.kind == "remove":
			last = i
		}
	}
	if len(fsynced) != files || count(log, "rename") != files {
		t.Fatalf("%d temporary files fsynced and %d renames, want %d each", len(fsynced), count(log, "rename"), files)
	}
	for _, dir := range dirs {
		found := false
		for _, o := range log[last+1:] {
			found = found || (o.kind == "fsync" && o.path == dir)
		}
		if !found {
			t.Errorf("directory %s not fsynced after the last rename or removal", dir)
		}
	}
}

// TestApplyChangesFlushOrder pins the order and the count of the flushes an
// apply makes, and with them every fsync the durable contract rests on.
func TestApplyChangesFlushOrder(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		root := t.TempDir()
		write(t, root, "old/dead.txt", "bye")
		write(t, root, "keep/x.txt", "x")
		write(t, root, "gone/dead.txt", "bye")
		write(t, root, "gone/stays.txt", "s")
		log := recordOps(t)
		changed := map[string][]byte{
			"a.txt":      []byte("a"),
			"sub/b.txt":  []byte("b"),
			"sub/c.txt":  []byte("c"),
			"deep/er/d":  []byte("d"),
			"keep/y.txt": []byte("y"),
		}
		if err := ApplyChanges(root, changed, []string{"old/dead.txt", "gone/dead.txt"}); err != nil {
			t.Fatal(err)
		}
		checkFlushOrder(t, *log, len(changed), dirsUnder(root, "", "sub", "deep", "deep/er", "keep", "gone"))
		if n := count(*log, "syncfs"); n != 2 {
			t.Errorf("%d syncfs calls, want one before the fsyncs and one before the directory fsyncs", n)
		}
	})
	t.Run("one file", func(t *testing.T) {
		root := t.TempDir()
		log := recordOps(t)
		if err := ApplyChanges(root, map[string][]byte{"d/one.txt": []byte("1")}, nil); err != nil {
			t.Fatal(err)
		}
		checkFlushOrder(t, *log, 1, dirsUnder(root, "", "d"))
		if n := count(*log, "syncfs"); n != 0 {
			t.Errorf("%d syncfs calls for one file, want none", n)
		}
	})
	t.Run("ReplaceFile", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "seg")
		log := recordOps(t)
		if err := ReplaceFile(path, []byte("segment")); err != nil {
			t.Fatal(err)
		}
		if got := *log; len(got) != 2 || got[0].kind != "fsync" || got[1].kind != "rename" || got[1].to != path {
			t.Fatalf("ReplaceFile ops %v, want one fsync then the rename", got)
		}
	})
	t.Run("past the open-file cap", func(t *testing.T) {
		root := t.TempDir()
		log := recordOps(t)
		changed := make(map[string][]byte)
		for i := range 600 {
			changed[fmt.Sprintf("d%d/f%03d", i%7, i)] = []byte(fmt.Sprint(i))
		}
		if err := ApplyChanges(root, changed, nil); err != nil {
			t.Fatal(err)
		}
		got := loadAll(t, root)
		if len(got) != len(changed) {
			t.Fatalf("loaded %d files, want %d", len(got), len(changed))
		}
		for rel, data := range changed {
			if !bytes.Equal(got[rel], data) {
				t.Fatalf("%s = %q, want %q", rel, got[rel], data)
			}
		}
		checkFlushOrder(t, *log, len(changed), dirsUnder(root, "", "d0", "d1", "d2", "d3", "d4", "d5", "d6"))
		if n := count(*log, "syncfs"); n != 4 {
			t.Errorf("%d syncfs calls, want one per batch of up to %d and one before the directory fsyncs", n, maxOpenTemps)
		}
	})
}

// TestApplyChangesRefusesBadPathFirst: a path that may not be written is
// refused before anything is, wherever it sits in the result. A traversal in
// the deletions was once found only after every changed file was in place.
func TestApplyChangesRefusesBadPathFirst(t *testing.T) {
	for _, c := range []struct {
		name    string
		changed map[string][]byte
		deleted []string
	}{
		{"deleted", map[string][]byte{"a": []byte("x")}, []string{"../escape"}},
		{"changed", map[string][]byte{"a": []byte("x"), "m/../../escape": []byte("y"), "z": []byte("z")}, nil},
	} {
		root := t.TempDir()
		if err := ApplyChanges(root, c.changed, c.deleted); err == nil {
			t.Errorf("%s: a traversal path was accepted", c.name)
		}
		if ents, _ := os.ReadDir(root); len(ents) != 0 {
			t.Errorf("%s: the refused apply left %d entries in the root", c.name, len(ents))
		}
	}
}

// TestApplyChangesReportsFirstFailure: with two files that cannot be
// written, the error names the first in path order, however the result's
// map iterates.
func TestApplyChangesReportsFirstFailure(t *testing.T) {
	// Before any write: the parent directories "m" and "z" are files.
	root := t.TempDir()
	write(t, root, "m", "a file where a directory is due")
	write(t, root, "z", "another")
	changed := map[string][]byte{"a.txt": []byte("a"), "m/x": []byte("x"), "z/y": []byte("y")}
	for range 8 {
		err := ApplyChanges(root, changed, nil)
		var pe *os.PathError
		if !errors.As(err, &pe) || pe.Path != filepath.Join(root, "m") {
			t.Fatalf("err = %v, want the failure at %s", err, filepath.Join(root, "m"))
		}
		if _, err := os.Stat(filepath.Join(root, "a.txt")); !os.IsNotExist(err) {
			t.Fatal("a file was written before the refusal")
		}
	}

	// At the renames: the targets "b" and "d" are directories. The files
	// before the first failure are in place, none after it, and no
	// temporary file is left.
	root = t.TempDir()
	write(t, root, "b/keep", "k")
	write(t, root, "d/keep", "k")
	changed = map[string][]byte{"a": []byte("a"), "b": []byte("b"), "c": []byte("c"), "d": []byte("d")}
	for range 8 {
		err := ApplyChanges(root, changed, nil)
		var le *os.LinkError
		if !errors.As(err, &le) || le.New != filepath.Join(root, "b") {
			t.Fatalf("err = %v, want the rename to %s", err, filepath.Join(root, "b"))
		}
	}
	if got, _ := os.ReadFile(filepath.Join(root, "a")); string(got) != "a" {
		t.Errorf("a = %q, want the file before the failure in place", got)
	}
	if _, err := os.Stat(filepath.Join(root, "c")); !os.IsNotExist(err) {
		t.Error("c was put into place after the failed rename")
	}
	ents, _ := os.ReadDir(root)
	for _, e := range ents {
		if isTemp(e.Name()) {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}
