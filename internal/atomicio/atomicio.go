// Package atomicio provides crash-safe file writes: data lands in a
// temporary file in the destination directory and is renamed into place
// only when complete, so an interrupted run can truncate at worst the
// temporary — never a published artifact. The study pipeline uses it
// for every on-disk output a consumer might parse (benchmark records,
// flight-recorder traces, cache entries, job results, reports).
package atomicio

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// WriteFile atomically replaces path with data: write to a temp file in
// the same directory, fsync, rename. On error the destination is left
// untouched (either the old content or absent).
func WriteFile(path string, data []byte, perm os.FileMode) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Chmod(perm); err != nil {
		f.Close()
		return err
	}
	return f.Commit()
}

// File is an in-progress atomic write: an ordinary *os.File open on a
// temporary in the destination's directory. Commit publishes it under
// the final name; Close without Commit discards it.
type File struct {
	*os.File
	path      string
	committed bool
}

// Create starts an atomic write of path.
func Create(path string) (*File, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("atomicio: %w", err)
	}
	return &File{File: tmp, path: path}, nil
}

// Commit flushes the temporary to stable storage and renames it over
// the destination. After Commit (successful or not) the File is closed.
func (f *File) Commit() error {
	if f.committed {
		return fmt.Errorf("atomicio: %s already committed", f.path)
	}
	f.committed = true
	if err := f.Sync(); err != nil {
		f.discard()
		return fmt.Errorf("atomicio: sync %s: %w", f.path, err)
	}
	if err := f.File.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("atomicio: close %s: %w", f.path, err)
	}
	if err := os.Rename(f.Name(), f.path); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("atomicio: publish %s: %w", f.path, err)
	}
	return nil
}

// Close discards the write unless Commit already published it. It is
// safe to defer alongside Commit.
func (f *File) Close() error {
	if f.committed {
		return nil
	}
	f.committed = true
	f.discard()
	return nil
}

func (f *File) discard() {
	f.File.Close()
	os.Remove(f.Name())
}

// isTempName reports whether a directory entry looks like one of
// Create's in-progress temporaries: ".<base>.tmp<random>". The pattern
// is deliberately anchored on both the leading dot and the ".tmp"
// infix so ordinary dotfiles are never swept.
func isTempName(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp")
}

// SweepTemps removes every stale atomic-write temporary in dir and
// reports how many were removed. A process killed between Create and
// Commit (e.g. a SIGINT landing mid-publication) orphans its temp file
// next to the destination; startup is the one moment a sweep is safe,
// because no write of this process can be in flight yet. Callers that
// share the directory with other live writers should use SweepTempsFor
// instead. A missing directory is not an error (nothing to sweep).
func SweepTemps(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("atomicio: sweep %s: %w", dir, err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !isTempName(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed++
		}
	}
	return removed, nil
}

// SweepTempsFor removes stale temporaries of one specific destination
// path ("<dir>/.<base>.tmp*"), leaving every other file — including
// other targets' in-flight temporaries — untouched. Use it when the
// directory is shared with concurrent writers (e.g. an output file
// next to files another process is writing).
func SweepTempsFor(path string) (int, error) {
	dir := filepath.Dir(path)
	prefix := "." + filepath.Base(path) + ".tmp"
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("atomicio: sweep %s: %w", path, err)
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err == nil {
			removed++
		}
	}
	return removed, nil
}
