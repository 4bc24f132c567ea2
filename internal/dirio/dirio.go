// Package dirio is the filesystem boundary of msync. It offers one view of a
// directory tree, the lazy Tree: a stat-only walk whose file contents are
// opened, hashed through a pooled buffer, and released on demand, so peak
// memory does not scale with collection size. The walk keeps going past
// files it cannot stat, collecting per-file errors instead of aborting.
// Every write of a sync result, pulled or pushed, goes through ApplyChanges.
package dirio

import (
	"cmp"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// readFile, readDir and statEntry are indirection points for tests to inject
// per-file failures (the suite runs as root, where permission bits don't
// bite).
var (
	readFile  = os.ReadFile
	readDir   = os.ReadDir
	statEntry = func(d fs.DirEntry) (fs.FileInfo, error) { return d.Info() }
)

// walkEntry is one regular file a walk found, not yet stat'ed.
type walkEntry struct {
	rel string // slash-separated, relative to the walk root
	d   fs.DirEntry
}

// walk lists every regular file under root, sorted by path. It reads each
// directory once and builds each slash-relative path from its parent's.
// Symlinks (following them could escape root), other non-regular files and
// the temporary files a writer leaves behind when a crash cuts it short
// (TempPrefix) are skipped. A directory that cannot be read is reported and
// walked as far as it was read.
func walk(root string) ([]walkEntry, WalkErrors) {
	var files []walkEntry
	var werrs WalkErrors
	var visit func(dir, rel string)
	visit = func(dir, rel string) {
		ents, err := readDir(dir)
		if err != nil {
			werrs = append(werrs, &FileError{Path: cmp.Or(rel, "."), Err: err})
		}
		for _, d := range ents {
			name := d.Name()
			switch {
			case d.IsDir():
				visit(dir+string(filepath.Separator)+name, joinRel(rel, name))
			case d.Type().IsRegular() && !strings.HasPrefix(name, TempPrefix):
				files = append(files, walkEntry{joinRel(rel, name), d})
			}
		}
	}
	visit(root, "")
	slices.SortFunc(files, func(a, b walkEntry) int { return strings.Compare(a.rel, b.rel) })
	return files, werrs
}

// joinRel is the slash-relative path of name in the directory at rel.
func joinRel(rel, name string) string {
	if rel == "" {
		return name
	}
	return rel + "/" + name
}

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
// content, with the stats spread over every core. Files whose metadata cannot
// be read are skipped and reported in the WalkErrors; err is non-nil only
// when root itself is unusable.
func OpenTree(root string) (t *Tree, werrs WalkErrors, err error) {
	return OpenTreeWorkers(root, 0)
}

// OpenTreeWorkers is OpenTree on at most pool.Workers(workers) goroutines:
// the walk lists every directory, then the per-file stats run in chunks over
// the workers (with one, inline on the caller). The tree keeps the bound for
// the callers that fingerprint it (Workers).
func OpenTreeWorkers(root string, workers int) (t *Tree, werrs WalkErrors, err error) {
	if _, err := os.Stat(root); err != nil {
		return nil, nil, err
	}
	ents, werrs := walk(root)
	files := make([]FileInfo, len(ents))
	statErrs := make([]*FileError, len(ents))
	pool.Range(workers, len(ents), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			info, err := statEntry(ents[i].d)
			if err != nil {
				statErrs[i] = &FileError{Path: ents[i].rel, Err: err}
				continue
			}
			files[i] = FileInfo{Path: ents[i].rel, Size: info.Size(), MTime: info.ModTime(), CTime: ctimeOf(info)}
		}
		return nil
	})
	t = &Tree{root: root, files: files[:0], workers: workers}
	for i, fe := range statErrs {
		if fe != nil {
			werrs = append(werrs, fe)
			continue
		}
		t.files = append(t.files, files[i])
	}
	werrs.sortByPath()
	return t, werrs, nil
}

// Root returns the directory the tree was walked from.
func (t *Tree) Root() string { return t.root }

// Workers returns the worker bound the tree was opened with.
func (t *Tree) Workers() int { return t.workers }

// Files returns the walked file identities, sorted by path. The slice is
// shared; callers must not mutate it.
func (t *Tree) Files() []FileInfo { return t.files }

// Load reads one file's content. The path is validated against traversal
// like everything else that touches disk on behalf of the protocol.
func (t *Tree) Load(rel string) ([]byte, error) {
	if err := checkPath(rel); err != nil {
		return nil, err
	}
	data, err := readFile(filepath.Join(t.root, filepath.FromSlash(rel)))
	if err != nil {
		return nil, &FileError{Path: rel, Err: err}
	}
	return data, nil
}

// hashBufPool bounds streamed hashing scratch: every concurrent HashFile
// borrows one fixed-size buffer, so hashing memory is (concurrency ×
// hashBufSize) regardless of file sizes and file count. That holds only
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

// HashFile streams one file through MD4 without holding its content: open,
// hash through a pooled buffer, release. It returns the sum and the number
// of bytes hashed.
func (t *Tree) HashFile(rel string) (sum [md4.Size]byte, n int64, err error) {
	if err := checkPath(rel); err != nil {
		return sum, 0, err
	}
	f, err := openRead(filepath.Join(t.root, filepath.FromSlash(rel)))
	if err != nil {
		return sum, 0, &FileError{Path: rel, Err: err}
	}
	defer f.Close()
	bufp := hashBufPool.Get().(*[]byte)
	defer hashBufPool.Put(bufp)
	buf := *bufp

	// A file that ends inside the first buffer is hashed in one shot from
	// there; only larger files pay for a streaming hash.Hash.
	var h hash.Hash
	fill := 0
	for {
		m, rerr := f.Read(buf[fill:])
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
// the session wrote, deleted the paths to remove. Every path is checked
// before anything is written. The changed files are put into place in path
// order, in batches of up to maxOpenTemps files, each as replaceAll does it:
// a failure before a batch's renames leaves every file of that batch as it
// was. Then the deletions are made, and every touched directory up to root
// is fsynced, so an applied sync survives power loss. Empty directories left
// behind are pruned. The error reported is the first failure in path order.
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
	dirs := make(map[string]struct{})
	files := make([]newFile, len(rels))
	for i, rel := range rels {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if _, ok := dirs[filepath.Dir(path)]; !ok { // a marked directory was made here, or is an ancestor of one that was
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				return err
			}
			markParents(dirs, root, rel)
		}
		files[i] = newFile{path, changed[rel]}
	}
	for len(files) > 0 {
		n := min(len(files), maxOpenTemps)
		if err := replaceAll(files[:n], true); err != nil {
			return err
		}
		files = files[n:]
	}
	for _, rel := range deleted {
		if err := removeFile(root, rel); err != nil {
			return err
		}
		markParents(dirs, root, rel)
	}
	return syncDirs(dirs, len(rels)+len(deleted) > 1)
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

// fsync, syncfs, rename and remove are the writers' flushes and namespace
// changes: indirection points for tests to record their order.
var (
	fsync  = (*os.File).Sync
	syncfs = syncFilesystem
	rename = os.Rename
	remove = os.Remove
)

// ReplaceFile writes data to path so that no failure, nor a crash, leaves a
// torn file: the content goes to a temporary file in the same directory,
// fsynced, with the replaced file's mode (0644 for a new one), and is renamed
// over path. On an error the temporary file is removed and the old file is as
// it was. The rename is durable once the caller has synced the directory.
func ReplaceFile(path string, data []byte) error {
	return replaceAll([]newFile{{path, data}}, true)
}

// WriteCache puts data, sealed by Seal, into place at path as ReplaceFile
// does, but without an fsync and with the temporary file's 0600 mode.
func WriteCache(path string, data []byte) error {
	return replaceAll([]newFile{{path, Seal(data)}}, false)
}

// newFile is the content a writer puts into place at path.
type newFile struct {
	path string
	data []byte
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
	temps := make([]*os.File, len(batch))
	err := pool.Range(0, len(batch), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			f, err := createTemp(batch[i], durable)
			if err != nil {
				return err
			}
			temps[i] = f
		}
		return nil
	})
	if err == nil && durable {
		if len(temps) > 1 {
			_ = syncfs(temps[0]) // an accelerator: the fsyncs below are the contract
		}
		for _, f := range temps {
			if err = fsync(f); err != nil {
				break
			}
		}
	}
	for _, f := range temps {
		if f != nil {
			err = cmp.Or(err, f.Close())
		}
	}
	for i, f := range temps {
		if f == nil {
			continue
		}
		if err == nil {
			if err = rename(f.Name(), batch[i].path); err == nil {
				continue
			}
		}
		remove(f.Name())
	}
	return err
}

// createTemp writes nf's content to a new temporary file beside nf.path,
// with the mode of the file it replaces (0644 for a new one) when durable.
// On an error the temporary file is removed.
func createTemp(nf newFile, durable bool) (*os.File, error) {
	f, err := os.CreateTemp(filepath.Dir(nf.path), TempPrefix+"*")
	if err != nil {
		return nil, err
	}
	_, err = f.Write(nf.data)
	if durable && err == nil {
		mode := fs.FileMode(0o644)
		if fi, serr := os.Stat(nf.path); serr == nil {
			mode = fi.Mode().Perm()
		}
		err = f.Chmod(mode)
	}
	if err != nil {
		f.Close()
		remove(f.Name())
		return nil, err
	}
	return f, nil
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

// markParents records every ancestor directory of rel, up to and including
// root, for a post-apply fsync pass. checkPath has already confined rel to
// the tree.
func markParents(dirs map[string]struct{}, root, rel string) {
	rootClean := filepath.Clean(root)
	dir := filepath.Dir(filepath.Join(root, filepath.FromSlash(rel)))
	for {
		dirs[dir] = struct{}{}
		if filepath.Clean(dir) == rootClean {
			return
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return
		}
		dir = parent
	}
}

// syncDirs fsyncs every directory of dirs in path order. With flushFS set,
// one syncfs on the first directory's filesystem commits every rename and
// removal before the fsyncs.
func syncDirs(dirs map[string]struct{}, flushFS bool) error {
	sorted := make([]string, 0, len(dirs))
	for dir := range dirs {
		sorted = append(sorted, dir)
	}
	slices.Sort(sorted)
	for _, dir := range sorted {
		if err := syncDir(dir, flushFS); err != nil {
			return err
		}
		flushFS = false
	}
	return nil
}

// SyncDir fsyncs a directory so entry creations, renames and removals inside
// it are durable. A directory that no longer exists (pruned since the writes)
// is skipped, and sync errors are ignored: some platforms and filesystems
// refuse directory fsync, which must not fail the write.
func SyncDir(path string) error { return syncDir(path, false) }

// syncDir is SyncDir, after a syncfs on the directory's filesystem when
// flushFS is set.
func syncDir(path string, flushFS bool) error {
	d, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if flushFS {
		_ = syncfs(d) // an accelerator, as in replaceAll
	}
	_ = fsync(d)
	return d.Close()
}

// removeFile deletes rel under root and prunes emptied parent directories.
// ApplyChanges has already checked rel.
func removeFile(root, rel string) error {
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	pruneEmptyParents(root, filepath.Dir(path))
	return nil
}

// checkPath rejects path traversal and absolute paths from the wire.
func checkPath(rel string) error {
	if rel == "" || strings.HasPrefix(rel, "/") || strings.HasPrefix(rel, "\\") {
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

// pruneEmptyParents removes now-empty directories up to (not including) root.
func pruneEmptyParents(root, dir string) {
	rootAbs, err := filepath.Abs(root)
	if err != nil {
		return
	}
	for {
		dirAbs, err := filepath.Abs(dir)
		if err != nil || dirAbs == rootAbs || !strings.HasPrefix(dirAbs, rootAbs+string(filepath.Separator)) {
			return
		}
		if err := os.Remove(dir); err != nil {
			return // not empty or gone
		}
		dir = filepath.Dir(dir)
	}
}
