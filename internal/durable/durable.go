package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// ErrCorrupt reports a file that is not an envelope Seal produced at
// the current version: torn, truncated, empty, altered, or stale.
var ErrCorrupt = errors.New("durable: corrupt file")

// version is the envelope format version. Bumping it makes every file
// sealed by an older build fail Open.
const version = 1

// Now stamps the mtimes Touch writes; tests replace it to order files
// without sleeping.
var Now = time.Now

// WriteFile atomically replaces path with data. A crash leaves the old
// file or the new one; on error the temp file is removed.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// header is the envelope's first line for body.
func header(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return fmt.Sprintf("durable/v%d %016x\n", version, h.Sum64())
}

// Seal marshals v as JSON inside the envelope.
func Seal(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append([]byte(header(body)), body...), nil
}

// Open checks that raw is an envelope Seal produced at the current
// version and unmarshals its body into v. Any other input returns an
// error wrapping ErrCorrupt. fnv-64a changes under any single-byte
// change of a fixed-length body, so Open rejects every single-byte
// mutation of a sealed file.
func Open(raw []byte, v any) error {
	i := bytes.IndexByte(raw, '\n')
	if i < 0 || string(raw[:i+1]) != header(raw[i+1:]) {
		return ErrCorrupt
	}
	if err := json.Unmarshal(raw[i+1:], v); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// Dir is a directory of sealed files with one corruption counter.
// Safe for concurrent use.
type Dir struct {
	root    string
	corrupt atomic.Int64
}

// OpenDir opens the directory at root, creating it if needed.
func OpenDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: root}, nil
}

// Root returns the directory's path.
func (d *Dir) Root() string { return d.root }

// Path returns the path of the file name in the directory.
func (d *Dir) Path(name string) string { return filepath.Join(d.root, name) }

// Put seals v and atomically writes it as name.
func (d *Dir) Put(name string, v any) error {
	raw, err := Seal(v)
	if err != nil {
		return err
	}
	return WriteFile(d.Path(name), raw)
}

// Get loads the sealed file name into v and reports whether it did. A
// missing file is a plain miss; an unreadable one counts as corrupt,
// and one that fails Open is also removed, so the next Put rewrites it.
func (d *Dir) Get(name string, v any) bool {
	raw, err := os.ReadFile(d.Path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return false
	}
	if err != nil {
		d.corrupt.Add(1)
		return false
	}
	if Open(raw, v) != nil {
		d.Reject(name)
		return false
	}
	return true
}

// Reject removes name and counts it as corrupt. Consumers call it for a
// file that opened cleanly but fails their own identity check, such as
// a valid entry stored under another key.
func (d *Dir) Reject(name string) {
	d.corrupt.Add(1)
	os.Remove(d.Path(name)) // best-effort: the next Put rewrites it
}

// Touch moves name to the most recently used end of Sweep's order.
// Best-effort.
func (d *Dir) Touch(name string) {
	now := Now()
	os.Chtimes(d.Path(name), now, now)
}

// Corrupt reports how many files failed to load.
func (d *Dir) Corrupt() int64 { return d.corrupt.Load() }

// Names lists the regular files whose names match pattern
// (filepath.Match syntax), in name order.
func (d *Dir) Names(pattern string) ([]string, error) {
	dents, err := os.ReadDir(d.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range dents {
		if ok, _ := filepath.Match(pattern, de.Name()); ok && de.Type().IsRegular() {
			names = append(names, de.Name())
		}
	}
	return names, nil
}

// Sweep removes the least recently modified files matching pattern
// until those left total at most budget bytes, and returns how many it
// removed. Concurrent sweeps and writes on one directory are safe: a
// file another sweep removed first counts as gone, so two sweeps do not
// together evict more than one would.
func (d *Dir) Sweep(pattern string, budget int64) int {
	names, err := d.Names(pattern)
	if err != nil {
		return 0
	}
	type file struct {
		name  string
		size  int64
		mtime time.Time
	}
	files := make([]file, 0, len(names))
	var total int64
	for _, name := range names {
		info, err := os.Stat(d.Path(name))
		if err != nil {
			continue
		}
		files = append(files, file{name, info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	removed := 0
	for _, f := range files {
		if total <= budget {
			break
		}
		err := os.Remove(d.Path(f.name))
		if err == nil {
			removed++
		}
		if err == nil || errors.Is(err, fs.ErrNotExist) {
			total -= f.size
		}
	}
	return removed
}
