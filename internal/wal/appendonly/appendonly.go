// Package appendonly is the write handle of a WAL segment: a file that can
// only grow. A File has no Read, Seek, WriteAt or Truncate, and both ways to
// get one open the file with O_APPEND, so every Write lands at its end. The
// handle lives outside package wal so that wal cannot reach the *os.File
// behind it. It is a concrete type, so a lock analysis that follows calls
// sees the I/O its methods perform.
package appendonly

import "os"

// File is an open segment, writable only at its end.
type File struct{ f *os.File }

// Create creates path, which must not exist yet, for appending.
func Create(path string) (*File, error) { return open(path, os.O_CREATE|os.O_EXCL) }

// Open opens the existing file at path for appending.
func Open(path string) (*File, error) { return open(path, 0) }

// open is the one call to os.OpenFile: write-only and appending, always.
func open(path string, flag int) (*File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f}, nil
}

// Write appends b at the end of the file.
func (a *File) Write(b []byte) (int, error) { return a.f.Write(b) }

// Sync commits the file's contents to stable storage (fsync).
func (a *File) Sync() error { return a.f.Sync() }

// Close closes the file.
func (a *File) Close() error { return a.f.Close() }
