// Package dirio is the filesystem boundary of msync. It offers one view of a
// directory tree, the lazy Tree: a stat-only walk whose file contents are
// opened, hashed through a pooled buffer, and released on demand, so peak
// memory does not scale with collection size. The walk keeps going past
// files it cannot stat, collecting per-file errors instead of aborting.
// Every write of a sync result, pulled or pushed, goes through ApplyChanges.
//
// Every read and write under a tree's root resolves one name at a time,
// relative to an open directory, and follows no symlink: on Linux through
// directory descriptors (fs_linux.go), elsewhere through paths whose every
// component is lstat'ed first (fs_path.go). The walker, the Cursor and the
// writers are written once, against those primitives.
package dirio

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"msync/internal/md4"
	"msync/internal/pool"
)

// FileError wraps a per-file stat/read failure with the offending path.
type FileError struct {
	Path string // slash-relative when under the walk root, else as reported
	Err  error
}

// Error implements error.
func (e *FileError) Error() string { return fmt.Sprintf("dirio: %s: %v", e.Path, e.Err) }

// Unwrap returns the underlying cause.
func (e *FileError) Unwrap() error { return e.Err }

// WalkErrors aggregates the per-file failures of one tree walk,
// sorted by path. The walk does not stop on them; callers that can tolerate
// a partial tree (the CLI warns and continues) inspect the slice, strict
// callers treat the aggregate as fatal. The ordering is deterministic even
// when walk-level and read/stat-level failures interleave, so error output
// and tests are stable across runs.
type WalkErrors []*FileError

// sortByPath orders w by path (ties keep insertion order) so aggregated
// failures from different collection stages report deterministically.
func (w WalkErrors) sortByPath() {
	slices.SortStableFunc(w, func(a, b *FileError) int { return strings.Compare(a.Path, b.Path) })
}

// Error implements error.
func (w WalkErrors) Error() string {
	if len(w) == 1 {
		return w[0].Error()
	}
	return fmt.Sprintf("%v (and %d more)", w[0], len(w)-1)
}

// Unwrap exposes the individual failures to errors.Is and errors.As.
func (w WalkErrors) Unwrap() []error {
	errs := make([]error, len(w))
	for i, e := range w {
		errs[i] = e
	}
	return errs
}

// ErrUnsafeDir is the cause of every refusal to read or write through a
// directory component of a path that is a symlink or not a directory: what
// lies past it may be outside the tree.
var ErrUnsafeDir = errors.New("a symlink or not a directory")

// The kinds of directory entry the walk tells apart.
const (
	kindOther   uint8 = iota // a symlink, device, socket or pipe
	kindFile                 // a regular file
	kindDir                  // a directory
	kindUnknown              // the directory does not say: stat it
)

// fileStat is the part of an lstat the package reads.
type fileStat struct {
	kind  uint8
	perm  fs.FileMode
	size  int64
	mtime time.Time
	ctime int64
}

// isDot reports whether the NUL-terminated name is "." or "..".
func isDot(name []byte) bool {
	return name[0] == '.' && (name[1] == 0 || name[1] == '.' && name[2] == 0)
}

// readEntries and statAt list a directory and stat a name in it for the
// walk; fsync, syncfs, rename and remove are the writers' flushes and
// namespace changes. They are indirection points for tests, to inject
// failures (the suite runs as root, where permission bits don't bite) and to
// record the writers' order.
var (
	readEntries = readDirents
	statAt      = lstatAt
	fsync       = node.sync
	syncfs      = node.syncFS
	rename      = renameAt
	remove      = unlinkAt
)

// FileInfo is one regular file found by a Tree walk: identity only, no
// content.
type FileInfo struct {
	// Path is the slash-separated path relative to the tree root.
	Path string
	// Size is the length in bytes at walk time.
	Size int64
	// MTime is the modification time at walk time.
	MTime time.Time
	// CTime is the inode change time in Unix nanoseconds at walk time, 0
	// when the platform does not report one. Unlike MTime it cannot be set
	// from userspace, so a rewrite that restores size and mtime (archive
	// extraction, timestamp-preserving editors) still moves it.
	CTime int64
}

// Tree is the lazy view of a directory: a snapshot of file identities taken
// by OpenTree, with content loaded (or stream-hashed) per file on demand and
// released after use. Safe for concurrent use.
type Tree struct {
	root    string
	files   []FileInfo // sorted by Path
	workers int
}

// OpenTree walks root collecting file identities without reading any
// content, with the directories spread over every core. Files whose metadata
// cannot be read are skipped and reported in the WalkErrors; err is non-nil
// only when root itself is unusable.
func OpenTree(root string) (t *Tree, werrs WalkErrors, err error) {
	return OpenTreeWorkers(root, 0)
}

// OpenTreeWorkers is OpenTree on at most pool.Workers(workers) goroutines:
// each lists and stats whole directories, a subdirectory goes to an idle
// goroutine when there is one, and so does a share of the stats of a large
// directory (with one worker, everything runs inline on the caller).
// Symlinks (following them could escape root), other non-regular files and
// the temporary files a writer leaves behind when a crash cuts it short
// (TempPrefix) are skipped. A directory that cannot be read is reported and
// walked as far as it was read. The tree keeps the bound for the callers
// that fingerprint it (Workers).
func OpenTreeWorkers(root string, workers int) (t *Tree, werrs WalkErrors, err error) {
	d, err := openRoot(root)
	if err != nil {
		return nil, nil, err
	}
	w := &walker{spare: make(chan *walkPart, pool.Workers(workers)-1)}
	for range cap(w.spare) {
		w.spare <- nil
	}
	p := newWalkPart()
	w.visit(p, d, "")
	d.close()
	w.wg.Wait()
	parts := []*walkPart{p}
	for range cap(w.spare) {
		if p := <-w.spare; p != nil {
			parts = append(parts, p)
		}
	}
	n := 0
	for _, p := range parts {
		n += len(p.files)
	}
	files := make([]FileInfo, 0, n)
	for _, p := range parts {
		files = append(files, p.files...)
		werrs = append(werrs, p.errs...)
		clear(p.files)
		p.files, p.errs = p.files[:0], nil
		walkParts.Put(p)
	}
	slices.SortFunc(files, func(a, b FileInfo) int { return strings.Compare(a.Path, b.Path) })
	werrs.sortByPath()
	return &Tree{root: root, files: files, workers: workers}, werrs, nil
}

// walker is one OpenTree walk in progress. Each goroutine beyond the caller
// takes a part from spare (from walkParts, on first use) and puts it back when
// done, so a walk fills at most one part a worker.
type walker struct {
	spare chan *walkPart
	wg    sync.WaitGroup
}

// walkPart is what the goroutines of a walk that held it found, and their
// scratch.
type walkPart struct {
	files []FileInfo
	errs  WalkErrors
	buf   []byte // the directory entries being read
	names []byte // the NUL-terminated names of the files to stat
	rel   []byte // the path being built
}

// direntBufSize is the directory-listing buffer of one walk goroutine.
const direntBufSize = 8 << 10

// walkParts keeps parts from one walk to the next: a part's file list grows
// to its share of the tree by copying, which a reused one has done already.
// Without it a walk of 20 000 files in one directory allocated 7.9 MB, not
// 2.1 MB, and ran slower (BenchmarkOpenTree).
var walkParts = sync.Pool{New: func() any { return &walkPart{buf: make([]byte, direntBufSize)} }}

func newWalkPart() *walkPart { return walkParts.Get().(*walkPart) }

// statChunk is how many files of one directory a goroutine stats before it
// offers the rest to an idle one.
const statChunk = 256

var tempPrefix = []byte(TempPrefix)

// visit lists and stats the directory d at rel into p, then walks its
// subdirectories, each opened relative to d and handed to a spare goroutine
// when there is one. d stays open until its files are stat'ed and its
// subdirectories opened.
func (w *walker) visit(p *walkPart, d node, rel string) {
	prefix := p.dir(rel)
	var subdirs []byte // NUL-terminated names
	p.names = p.names[:0]
	err := readEntries(d, p.buf, func(name []byte, kind uint8) {
		switch {
		case kind == kindDir:
			subdirs = append(subdirs, name...)
		case kind == kindFile && !bytes.HasPrefix(name, tempPrefix):
			p.names = append(p.names, name...)
		case kind == kindUnknown:
			if p.stat(d, prefix, name) {
				subdirs = append(subdirs, name...)
			}
		}
	})
	if err != nil {
		p.errs = append(p.errs, &FileError{Path: cmp.Or(rel, "."), Err: err})
	}
	var stats *sync.WaitGroup // made at the first hand-off: most directories have none
	for names := p.names; len(names) > 0; {
		at := 0
		for i := 0; i < statChunk && at < len(names); i++ {
			at += bytes.IndexByte(names[at:], 0) + 1
		}
		chunk := names[:at]
		names = names[at:]
		if len(names) > 0 {
			select {
			case q := <-w.spare:
				if stats == nil {
					stats = new(sync.WaitGroup)
				}
				stats.Add(1)
				go func(stats *sync.WaitGroup) {
					defer stats.Done()
					if q == nil {
						q = newWalkPart()
					}
					q.statAll(d, q.dir(rel), chunk)
					w.spare <- q
				}(stats)
				continue
			default:
			}
		}
		p.statAll(d, prefix, chunk)
	}
	if stats != nil {
		stats.Wait()
	}
	for len(subdirs) > 0 {
		i := bytes.IndexByte(subdirs, 0)
		name := subdirs[:i+1]
		subdirs = subdirs[i+1:]
		sub := joinRel(rel, string(name[:i]))
		child, err := openDir(d, name)
		if err != nil {
			p.errs = append(p.errs, &FileError{Path: sub, Err: err})
			continue
		}
		select {
		case q := <-w.spare:
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				if q == nil {
					q = newWalkPart()
				}
				w.visit(q, child, sub)
				child.close()
				w.spare <- q
			}()
		default:
			w.visit(p, child, sub)
			child.close()
		}
	}
}

// dir starts p's path at the directory rel and returns its length, to
// which each name in it is appended.
func (p *walkPart) dir(rel string) int {
	p.rel = append(p.rel[:0], rel...)
	if rel != "" {
		p.rel = append(p.rel, '/')
	}
	return len(p.rel)
}

// statAll stats each of names, NUL-terminated one after another, as stat
// does.
func (p *walkPart) statAll(d node, prefix int, names []byte) {
	for len(names) > 0 {
		i := bytes.IndexByte(names, 0)
		p.stat(d, prefix, names[:i+1])
		names = names[i+1:]
	}
}

// stat stats the NUL-terminated name in d, the directory whose path is
// p.rel[:prefix], and records it in p when it is a regular file, or its
// failure. It reports whether name is a directory.
func (p *walkPart) stat(d node, prefix int, name []byte) (dir bool) {
	p.rel = append(p.rel[:prefix], name[:len(name)-1]...)
	st, err := statAt(d, name)
	switch {
	case err != nil:
		p.errs = append(p.errs, &FileError{Path: string(p.rel), Err: err})
	case st.kind == kindFile && !bytes.HasPrefix(name, tempPrefix):
		p.files = append(p.files, FileInfo{Path: string(p.rel), Size: st.size, MTime: st.mtime, CTime: st.ctime})
	}
	return err == nil && st.kind == kindDir
}

// joinRel is the slash-relative path of name in the directory at rel.
func joinRel(rel, name string) string {
	if rel == "" {
		return name
	}
	return rel + "/" + name
}

// splitRel splits a slash-relative path into its directory ("" for the
// root) and its last component.
func splitRel(rel string) (dir, base string) {
	i := strings.LastIndexByte(rel, '/')
	if i < 0 {
		return "", rel
	}
	return rel[:i], rel[i+1:]
}

// Root returns the directory the tree was walked from.
func (t *Tree) Root() string { return t.root }

// Workers returns the worker bound the tree was opened with.
func (t *Tree) Workers() int { return t.workers }

// Files returns the walked file identities, sorted by path. The slice is
// shared; callers must not mutate it.
func (t *Tree) Files() []FileInfo { return t.files }

// Load reads one file's content. The path is validated against traversal
// like everything else that touches disk on behalf of the protocol. It is
// one read through a fresh Cursor, which opens every directory on the way: a
// run of reads goes faster through one Cursor of its own.
func (t *Tree) Load(rel string) ([]byte, error) {
	c := Cursor{t: t}
	defer c.Close()
	return c.Load(rel)
}

// HashFile streams one file through MD4 without holding its content: open,
// hash through a pooled buffer, release. It returns the sum and the number
// of bytes hashed. It opens the file as Load does.
func (t *Tree) HashFile(rel string) (sum [md4.Size]byte, n int64, err error) {
	c := Cursor{t: t}
	defer c.Close()
	return c.HashFile(rel)
}

// Cursor reads files of a Tree, keeping open the directories on the way to
// the file it read last, so a run of reads in path order opens each
// directory once, each relative to its parent. A file is opened relative to
// its directory; no symlink is followed, on the way or at the file, and a
// file swapped for one since the walk fails with ELOOP. A Cursor holds at
// most the tree's depth in descriptors until Close; it is not safe for
// concurrent use, so each worker takes its own.
type Cursor struct {
	t    *Tree
	dirs []node  // dirs[0] is the root, dirs[i] the i-th directory of cur
	cur  string  // the slash path of the innermost directory, "" for the root
	name []byte  // a NUL-terminated name, reused
	buf  *[]byte // HashFile's buffer, from hashBufPool until Close
}

// Cursor returns a new cursor over t. Close it when done.
func (t *Tree) Cursor() *Cursor { return &Cursor{t: t} }

// Close releases every directory the cursor holds, and its hashing buffer.
// The cursor stays usable.
func (c *Cursor) Close() {
	for i := len(c.dirs) - 1; i >= 0; i-- {
		c.dirs[i].close()
	}
	c.dirs, c.cur = c.dirs[:0], ""
	if c.buf != nil {
		hashBufPool.Put(c.buf)
		c.buf = nil
	}
}

// cname is s NUL-terminated in the cursor's name buffer.
func (c *Cursor) cname(s string) []byte {
	c.name = append(append(c.name[:0], s...), 0)
	return c.name
}

// enter makes dir the innermost open directory: the directories it shares
// with the current one stay open, the rest are closed or opened.
func (c *Cursor) enter(dir string) error {
	if len(c.dirs) > 0 && dir == c.cur {
		return nil
	}
	if len(c.dirs) == 0 {
		root, err := openRoot(c.t.root)
		if err != nil {
			return err
		}
		c.dirs = append(c.dirs, root)
	}
	shared, rest := 0, dir // whole components dir shares with cur, and what follows them
	for a := c.cur; a != "" && rest != ""; {
		ca, ra, _ := strings.Cut(a, "/")
		cb, rb, _ := strings.Cut(rest, "/")
		if ca != cb {
			break
		}
		shared++
		a, rest = ra, rb
	}
	for len(c.dirs) > shared+1 {
		c.dirs[len(c.dirs)-1].close()
		c.dirs = c.dirs[:len(c.dirs)-1]
	}
	for rest != "" {
		var comp string
		comp, rest, _ = strings.Cut(rest, "/")
		d, err := openDir(c.dirs[len(c.dirs)-1], c.cname(comp))
		if err != nil {
			c.Close()
			return err
		}
		c.dirs = append(c.dirs, d)
	}
	c.cur = dir
	return nil
}

// open opens the file at rel read-only, after checking the path.
func (c *Cursor) open(rel string) (node, error) {
	if err := checkPath(rel); err != nil {
		return node{}, err
	}
	dir, base := splitRel(rel)
	if err := c.enter(dir); err != nil {
		return node{}, &FileError{Path: rel, Err: err}
	}
	f, err := openFile(c.dirs[len(c.dirs)-1], c.cname(base))
	if err != nil {
		return node{}, &FileError{Path: rel, Err: err}
	}
	return f, nil
}

// Load reads one file's content, as Tree.Load does.
func (c *Cursor) Load(rel string) ([]byte, error) {
	data, _, err := c.load(rel)
	return data, err
}

// LoadWalked reads one file's content, as Load does, and reports whether the
// file it read is the one the tree's walk listed at rel: the same size,
// modification time and change time. It costs Load's one fstat, no more.
func (c *Cursor) LoadWalked(rel string) ([]byte, bool, error) {
	data, st, err := c.load(rel)
	if err != nil {
		return nil, false, err
	}
	i, ok := slices.BinarySearchFunc(c.t.files, rel, func(fi FileInfo, rel string) int { return strings.Compare(fi.Path, rel) })
	if !ok {
		return data, false, nil
	}
	fi := c.t.files[i]
	return data, st.size == fi.Size && st.mtime.Equal(fi.MTime) && st.ctime == fi.CTime, nil
}

// load is Load, with the stat of the open file.
func (c *Cursor) load(rel string) ([]byte, fileStat, error) {
	f, err := c.open(rel)
	if err != nil {
		return nil, fileStat{}, err
	}
	defer f.close()
	st, err := f.stat()
	if err != nil {
		return nil, st, &FileError{Path: rel, Err: err}
	}
	data := make([]byte, 0, st.size+1) // one byte more, so the read that finds the end needs no growth
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := f.read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, st, nil
		}
		if err != nil {
			return nil, st, &FileError{Path: rel, Err: err}
		}
	}
}

// hashBufPool bounds streamed hashing scratch: every open Cursor that hashes
// borrows one fixed-size buffer until Close, so hashing memory is
// (concurrency × hashBufSize) regardless of file sizes and file count. That holds only
// because HashFile reads into the buffer itself: io.CopyBuffer would hand the
// copy to (*os.File).WriteTo, whose generic fallback ignores the caller's
// buffer and allocates 32 KB of its own for every file.
const hashBufSize = 256 << 10

var hashBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, hashBufSize)
		return &b
	},
}

// HashFile streams one file through MD4, as Tree.HashFile does. A small file
// costs no allocation.
func (c *Cursor) HashFile(rel string) (sum [md4.Size]byte, n int64, err error) {
	f, err := c.open(rel)
	if err != nil {
		return sum, 0, err
	}
	defer f.close()
	if c.buf == nil {
		c.buf = hashBufPool.Get().(*[]byte)
	}
	buf := *c.buf

	// A file that ends inside the first buffer is hashed in one shot from
	// there; only larger files pay for a streaming hash.Hash.
	var h hash.Hash
	fill := 0
	for {
		m, rerr := f.read(buf[fill:])
		fill += m
		n += int64(m)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return sum, n, &FileError{Path: rel, Err: rerr}
		}
		if fill == len(buf) {
			if h == nil {
				h = md4.New()
			}
			h.Write(buf)
			fill = 0
		}
	}
	if h == nil {
		return md4.Sum(buf[:fill]), n, nil
	}
	h.Write(buf[:fill])
	return [md4.Size]byte(h.Sum(nil)), n, nil // sum[:0] would move sum to the heap on every call
}

// maxOpenTemps caps the temporary files ApplyChanges holds open at once: a
// larger result is applied in consecutive batches of this many files, so a
// sync of any size stays far inside the descriptor limit.
const maxOpenTemps = 256

// ApplyChanges applies a sync result: changed holds the files whose content
// the session wrote, deleted the paths to remove. Every path is checked, and
// every directory it names opened, before any directory is made or anything
// is written: a directory component that is a symlink or not a directory
// fails the apply with ErrUnsafeDir, and a symlink as a path's last
// component is replaced, never followed. The changed files are put into
// place in path order, in batches of up to maxOpenTemps files, each as
// replaceAll does it: a failure before a batch's renames leaves every file
// of that batch as it was. Then the deletions are made, and every touched
// directory up to root is fsynced, so an applied sync survives power loss.
// Empty directories left behind are pruned. The error reported is the first
// failure in path order.
func ApplyChanges(root string, changed map[string][]byte, deleted []string) error {
	rels := make([]string, 0, len(changed))
	for rel := range changed {
		rels = append(rels, rel)
	}
	slices.Sort(rels)
	for _, paths := range [][]string{rels, deleted} {
		for _, rel := range paths {
			if err := checkPath(rel); err != nil {
				return err
			}
		}
	}
	if len(rels) > 0 {
		if err := os.MkdirAll(root, 0o755); err != nil {
			return err
		}
	}
	d, err := openRoot(root)
	if err != nil {
		if len(rels) == 0 && errors.Is(err, fs.ErrNotExist) {
			return nil // nothing to delete
		}
		return err
	}
	t := &dirTable{open: map[string]node{"": d}, touched: map[string]bool{}}
	defer t.close()
	// Every directory is checked before any is made, so a refused result
	// leaves no new directory behind. One found missing can hide nothing.
	prev := "\x00"
	for _, paths := range [][]string{rels, deleted} {
		for _, rel := range paths {
			dir, _ := splitRel(rel)
			if dir == prev {
				continue
			}
			prev = dir
			if _, err := t.dir(dir, false); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			t.trim()
		}
	}
	for _, rel := range rels {
		dir, _ := splitRel(rel)
		if _, err := t.dir(dir, true); err != nil {
			return err
		}
		t.trim()
	}
	batch := make([]newFile, 0, min(len(rels), maxOpenTemps))
	for len(rels) > 0 {
		batch = batch[:0]
		for _, rel := range rels[:min(len(rels), maxOpenTemps)] {
			dir, base := splitRel(rel)
			d, err := t.dir(dir, true)
			if err != nil {
				return err
			}
			batch = append(batch, newFile{d, base, changed[rel]})
			t.touch(rel)
		}
		if err := replaceAll(batch, true); err != nil {
			return err
		}
		rels = rels[len(batch):]
		t.trim()
	}
	for _, rel := range deleted {
		dir, base := splitRel(rel)
		d, err := t.dir(dir, false)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := remove(d, base, false); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		t.touch(rel)
		t.prune(dir)
		t.trim()
	}
	return t.sync(len(changed)+len(deleted) > 1)
}

// maxOpenDirs bounds the directories an apply holds open between batches:
// past it they are all closed, and each is opened again, relative to its
// parent, when next needed.
const maxOpenDirs = 1024

// dirTable is the directories of one ApplyChanges, by slash path relative to
// the root ("" is the root), each opened relative to its parent without
// following a symlink, and the ones to fsync when the apply is done.
type dirTable struct {
	open    map[string]node
	touched map[string]bool
	name    []byte // a NUL-terminated name, reused
}

// dir returns the open directory at rel, opening it and any parent not
// open. With create set, a missing directory is made.
func (t *dirTable) dir(rel string, create bool) (node, error) {
	if d, ok := t.open[rel]; ok {
		return d, nil
	}
	parentRel, base := splitRel(rel)
	parent, err := t.dir(parentRel, create)
	if err != nil {
		return node{}, err
	}
	t.name = append(append(t.name[:0], base...), 0)
	d, err := openDir(parent, t.name)
	if create && errors.Is(err, fs.ErrNotExist) {
		if err = mkdirAt(parent, base); err == nil || errors.Is(err, fs.ErrExist) {
			d, err = openDir(parent, t.name)
		}
	}
	if err != nil {
		return node{}, err
	}
	t.open[rel] = d
	return d, nil
}

// trim closes every directory but the root once more than maxOpenDirs are
// open.
func (t *dirTable) trim() {
	if len(t.open) <= maxOpenDirs {
		return
	}
	for rel, d := range t.open {
		if rel != "" {
			d.close()
			delete(t.open, rel)
		}
	}
}

// touch marks the directory of rel and every ancestor up to the root to be
// fsynced.
func (t *dirTable) touch(rel string) {
	for dir := rel; dir != ""; {
		dir, _ = splitRel(dir)
		if t.touched[dir] {
			return
		}
		t.touched[dir] = true
	}
}

// prune removes the directory at rel and then each parent it leaves empty,
// up to (not including) the root.
func (t *dirTable) prune(rel string) {
	for rel != "" {
		parentRel, base := splitRel(rel)
		parent, err := t.dir(parentRel, false)
		if err != nil || unlinkAt(parent, base, true) != nil {
			return // not empty, or gone
		}
		if d, ok := t.open[rel]; ok {
			d.close()
			delete(t.open, rel)
		}
		rel = parentRel
	}
}

// sync fsyncs every touched directory still there, in path order. With
// flushFS set, one syncfs on the first directory's filesystem commits every
// rename and removal before the fsyncs. Sync errors are ignored, as SyncDir
// ignores them.
func (t *dirTable) sync(flushFS bool) error {
	dirs := make([]string, 0, len(t.touched))
	for rel := range t.touched {
		dirs = append(dirs, rel)
	}
	slices.Sort(dirs)
	for _, rel := range dirs {
		d, err := t.dir(rel, false)
		if errors.Is(err, fs.ErrNotExist) {
			continue // pruned
		}
		if err != nil {
			return err
		}
		if flushFS {
			_ = syncfs(d) // an accelerator, as in replaceAll
			flushFS = false
		}
		_ = fsync(d)
		t.trim()
	}
	return nil
}

// close releases every open directory.
func (t *dirTable) close() {
	for _, d := range t.open {
		d.close()
	}
}

// Every file msync persists is put into place here, in one of two
// disciplines.
//
// Durable: ReplaceFile (one file) and ApplyChanges (a sync result) fsync the
// content before the rename, and the directory is fsynced (SyncDir) once the
// renames it commits are done. Applied files, store segments and published
// artifacts are written so.
//
// Best-effort cache: WriteCache seals the content with an MD4 trailer and
// renames it into place without an fsync. A crash may lose or tear the file;
// a torn one fails Unseal, and the reader takes either for a miss.
// Signature-cache entries and merkle tree files are written so, thousands of
// them when a cache warms, where an fsync each would cost more than the cache
// saves.

// TempPrefix starts the name of every temporary file the writers leave in a
// directory until the rename; a crash in between leaves one behind.
const TempPrefix = ".msync-"

// ReplaceFile writes data to path so that no failure, nor a crash, leaves a
// torn file: the content goes to a temporary file in the same directory,
// fsynced, with the replaced file's mode (0644 for a new one), and is renamed
// over path. On an error the temporary file is removed and the old file is as
// it was. The rename is durable once the caller has synced the directory.
func ReplaceFile(path string, data []byte) error { return replaceOne(path, data, true) }

// WriteCache puts data, sealed by Seal, into place at path as ReplaceFile
// does, but without an fsync and with the temporary file's 0600 mode.
func WriteCache(path string, data []byte) error { return replaceOne(path, Seal(data), false) }

// replaceOne is replaceAll for the one file at path.
func replaceOne(path string, data []byte, durable bool) error {
	d, err := openRoot(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.close()
	return replaceAll([]newFile{{d, filepath.Base(path), data}}, durable)
}

// newFile is the content a writer puts into place as name in dir.
type newFile struct {
	dir  node
	name string
	data []byte
}

// tempFile is a written temporary file, open, and its name in its directory.
type tempFile struct {
	f    node
	name string
}

// replaceAll puts every file of batch into place through a temporary file in
// its target's directory, created and written on the pool's workers, then
// renamed over the target in batch order. A durable batch's temporary files
// take the replaced file's mode (0644 for a new one) and are each fsynced, in
// batch order, before the first rename. With more than one file a syncfs
// comes first: one writeback pass, one journal commit and one cache flush for
// the whole batch, after which each fsync finds its file clean. The fsyncs
// stay, since only they report each file's own writeback error on every
// kernel and reach a file on another mount. A failure before the renames
// removes every temporary file and replaces nothing; a failed rename removes
// the temporary files from it on, past the ones already renamed. The error is
// the first failure in batch order.
func replaceAll(batch []newFile, durable bool) error {
	temps := make([]tempFile, len(batch))
	err := pool.Range(0, len(batch), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			f, err := writeTemp(batch[i], durable)
			if err != nil {
				return err
			}
			temps[i] = f
		}
		return nil
	})
	if err == nil && durable {
		if len(temps) > 1 {
			_ = syncfs(temps[0].f) // an accelerator: the fsyncs below are the contract
		}
		for _, t := range temps {
			if err = fsync(t.f); err != nil {
				break
			}
		}
	}
	for _, t := range temps {
		if t.name != "" {
			err = cmp.Or(err, t.f.close())
		}
	}
	for i, t := range temps {
		if t.name == "" {
			continue
		}
		if err == nil {
			if err = rename(batch[i].dir, t.name, batch[i].name); err == nil {
				continue
			}
		}
		remove(batch[i].dir, t.name, false)
	}
	return err
}

// writeTemp writes nf's content to a new temporary file in nf.dir, with the
// mode of the regular file it replaces (0644 for a new one) when durable. On
// an error the temporary file is removed.
func writeTemp(nf newFile, durable bool) (tempFile, error) {
	t, err := createTemp(nf.dir)
	if err != nil {
		return tempFile{}, err
	}
	err = t.f.write(nf.data)
	if durable && err == nil {
		perm := fs.FileMode(0o644)
		if st, serr := lstatAt(nf.dir, append([]byte(nf.name), 0)); serr == nil && st.kind == kindFile {
			perm = st.perm
		}
		err = t.f.chmod(perm)
	}
	if err != nil {
		t.f.close()
		remove(nf.dir, t.name, false)
		return tempFile{}, err
	}
	return t, nil
}

// createTemp creates a new TempPrefix file in d, mode 0600, open for
// writing.
func createTemp(d node) (tempFile, error) {
	for try := 0; ; try++ {
		name := TempPrefix + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := createExcl(d, name)
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		if err != nil {
			return tempFile{}, err
		}
		return tempFile{f, name}, nil
	}
}

// Seal appends the MD4 of data to it: the trailer a cache file ends with.
func Seal(data []byte) []byte {
	sum := md4.Sum(data)
	return append(data, sum[:]...)
}

// Unseal strips Seal's trailer from a file's content. ok is false when the
// content is too short to hold one or does not match it: a torn or flipped
// file.
func Unseal(file []byte) (data []byte, ok bool) {
	if len(file) < md4.Size {
		return nil, false
	}
	data = file[:len(file)-md4.Size]
	return data, md4.Sum(data) == [md4.Size]byte(file[len(data):])
}

// SyncDir fsyncs a directory so entry creations, renames and removals inside
// it are durable. A directory that no longer exists (pruned since the writes)
// is skipped, and sync errors are ignored: some platforms and filesystems
// refuse directory fsync, which must not fail the write.
func SyncDir(path string) error {
	d, err := openRoot(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	_ = fsync(d)
	return d.close()
}

// checkPath rejects path traversal and absolute paths from the wire; a NUL
// byte, since the primitives pass names to the kernel NUL-terminated and
// "..\x00x" would reach it as ".."; and the platform's separator where that
// is not '/', since the path primitives join names with filepath.Join, which
// on Windows takes a\..\..\x for a path out of the root.
func checkPath(rel string) error {
	if rel == "" || strings.HasPrefix(rel, "/") || strings.HasPrefix(rel, "\\") || strings.IndexByte(rel, 0) >= 0 ||
		filepath.Separator != '/' && strings.IndexByte(rel, filepath.Separator) >= 0 {
		return fmt.Errorf("dirio: refusing path %q", rel)
	}
	for part, rest, more := "", rel, true; more; { // strings.Split would allocate per file
		part, rest, more = strings.Cut(rest, "/")
		if part == ".." || part == "" {
			return fmt.Errorf("dirio: refusing path %q", rel)
		}
	}
	if filepath.IsAbs(rel) || (len(rel) > 1 && rel[1] == ':') {
		return fmt.Errorf("dirio: refusing path %q", rel)
	}
	return nil
}
