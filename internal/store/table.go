package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// table is one persisted key→value map: a set of append-only JSONL files
// and the in-memory index rebuilt from them at open. The result shards
// and the calibration memo are both tables, so crash tolerance (torn-tail
// skip at load, torn-tail heal before the first append, temp+rename
// compaction) lives here once.
//
// Lock order: a file's mu, then the table's mu. A put indexes its record
// before releasing the file lock, so the index and the file agree on
// which write came last, and a compaction (which holds every file lock)
// sees each record either on disk and indexed or neither. No lock spans
// two tables.
type table[K, V comparable] struct {
	dir     string
	kind    string     // "shard" or "memo": names the file in errors
	pattern string     // base-name pattern of every file the table loads and compacts
	files   []*logFile // write files; shard picks one per key

	shard  func(K) int
	encode func(K, V) ([]byte, error) // one line, without the newline
	decode func([]byte) (K, V, error)
	less   func(a, b K) bool // compaction and key-listing order

	mu      sync.RWMutex
	index   map[K]V // guarded by mu
	skipped int     // guarded by mu; unparseable lines tolerated at load
}

// logFile is one write file of a table.
type logFile struct {
	path string
	mu   sync.Mutex // ordered before the table's mu
	f    *os.File   // guarded by mu; lazily opened append handle
}

// logFiles returns the write files for the given base names in dir.
func logFiles(dir string, names ...string) []*logFile {
	out := make([]*logFile, len(names))
	for i, n := range names {
		out[i] = &logFile{path: filepath.Join(dir, n)}
	}
	return out
}

// paths lists every file in dir whose base name matches the table's
// pattern, sorted. The directory is listed rather than globbed: a store
// directory is a path, and a '[', '*' or '?' in it must not turn it into
// a pattern that matches another store's files.
func (t *table[K, V]) paths() ([]string, error) {
	ents, err := os.ReadDir(t.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []string
	for _, e := range ents {
		// The patterns are constants, so Match cannot report ErrBadPattern.
		if ok, _ := filepath.Match(t.pattern, e.Name()); ok {
			out = append(out, filepath.Join(t.dir, e.Name()))
		}
	}
	return out, nil
}

// load scans every file matching the pattern (not just the write files)
// into the index. Lines that fail to decode — torn tails from a killed
// writer, or stray corruption — are counted and skipped; later records
// for a key replace earlier ones, so within one file append order wins.
// Every failure names the file: a daemon refusing to start over one
// unreadable file must say which.
func (t *table[K, V]) load() error {
	paths, err := t.paths()
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range paths {
		if err := t.loadFileLocked(p); err != nil {
			return fmt.Errorf("store: %s %s: %w", t.kind, p, err)
		}
	}
	return nil
}

func (t *table[K, V]) loadFileLocked(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		k, v, err := t.decode(line)
		if err != nil {
			t.skipped++
			continue
		}
		t.index[k] = v
	}
	return sc.Err()
}

func (t *table[K, V]) get(k K) (V, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.index[k]
	return v, ok
}

func (t *table[K, V]) len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.index)
}

func (t *table[K, V]) skips() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.skipped
}

// values returns every indexed value, unordered.
func (t *table[K, V]) values() []V {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]V, 0, len(t.index))
	for _, v := range t.index {
		out = append(out, v)
	}
	return out
}

// keys returns every indexed key in less order.
func (t *table[K, V]) keys() []K {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.keysLocked()
}

func (t *table[K, V]) keysLocked() []K {
	out := make([]K, 0, len(t.index))
	for k := range t.index {
		out = append(out, k)
	}
	sort.Slice(out, func(a, b int) bool { return t.less(out[a], out[b]) })
	return out
}

// put appends k→v to its file and indexes it. A value identical to the
// indexed one is a no-op (no duplicate line); a different one appends and
// replaces, so the newest write wins on the next load too. The line goes
// out in a single write syscall under the file lock, which keeps
// concurrent puts from interleaving; a process killed mid-write leaves at
// most one torn tail line, which the next load skips.
func (t *table[K, V]) put(k K, v V) error {
	t.mu.RLock()
	prev, ok := t.index[k]
	t.mu.RUnlock()
	if ok && prev == v {
		return nil
	}
	line, err := t.encode(k, v)
	if err != nil {
		return err
	}
	lf := t.files[t.shard(k)]
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if err := lf.appendLocked(append(line, '\n')); err != nil {
		return fmt.Errorf("store: %s %s: %w", t.kind, lf.path, err)
	}
	t.mu.Lock()
	t.index[k] = v
	t.mu.Unlock()
	return nil
}

// appendLocked writes line, opening the append handle on first use.
func (lf *logFile) appendLocked(line []byte) error {
	if lf.f == nil {
		f, err := openAppend(lf.path)
		if err != nil {
			return err
		}
		lf.f = f
	}
	_, err := lf.f.Write(line)
	return err
}

// closeLocked releases the append handle, if open.
func (lf *logFile) closeLocked() error {
	if lf.f == nil {
		return nil
	}
	err := lf.f.Close()
	lf.f = nil
	return err
}

// openAppend opens a JSONL file for appending, first appending a newline
// if the existing last line was torn by a crash (no trailing newline), so
// the next record starts on its own line instead of concatenating onto
// the fragment.
func openAppend(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if n := st.Size(); n > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], n-1); err != nil {
			f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	return f, nil
}

// compact rewrites the table as exactly one line per indexed key, in less
// order, dropping superseded duplicates and torn tails. Files are written
// to temp files and renamed into place, so a crash mid-compact leaves
// either the old or the new file, never a half of each; files matching
// the pattern outside the write set are removed.
func (t *table[K, V]) compact() error {
	for _, lf := range t.files {
		lf.mu.Lock()
		defer lf.mu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	bufs := make([][]byte, len(t.files))
	for _, k := range t.keysLocked() {
		line, err := t.encode(k, t.index[k])
		if err != nil {
			return err
		}
		i := t.shard(k)
		bufs[i] = append(append(bufs[i], line...), '\n')
	}
	existing, err := t.paths()
	if err != nil {
		return err
	}
	fresh := make(map[string]bool, len(t.files))
	for i, lf := range t.files {
		// The handle points at the file about to be replaced, whose bytes
		// are rewritten from the index, so a close error loses nothing.
		_ = lf.closeLocked()
		fresh[lf.path] = true
		tmp := lf.path + ".tmp"
		if err := os.WriteFile(tmp, bufs[i], 0o644); err != nil {
			return fmt.Errorf("store: %s %s: %w", t.kind, tmp, err)
		}
		if err := os.Rename(tmp, lf.path); err != nil {
			return fmt.Errorf("store: %s %s: %w", t.kind, lf.path, err)
		}
	}
	for _, p := range existing {
		if !fresh[p] {
			if err := os.Remove(p); err != nil {
				return fmt.Errorf("store: %s %s: %w", t.kind, p, err)
			}
		}
	}
	t.skipped = 0
	return nil
}

// close releases every append handle, returning the first error.
func (t *table[K, V]) close() error {
	var first error
	for _, lf := range t.files {
		lf.mu.Lock()
		if err := lf.closeLocked(); err != nil && first == nil {
			first = err
		}
		lf.mu.Unlock()
	}
	return first
}
