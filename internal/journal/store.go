package journal

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// store is the journal's storage seam: the named files of one journal.
// dirStore keeps them in a directory; memStore keeps them in byte slices
// for components that journal without one (an empty Options.Dir). The
// journal logic above the seam — framing, LSNs, group commit, snapshots,
// compaction, recovery, export — is the same for both.
type store interface {
	// create makes a new, empty file open for appending; it fails if
	// the name is taken.
	create(name string) (segment, error)
	// writeAtomic stores data under name in one step: a crash leaves
	// either the previous file or the complete new one.
	writeAtomic(name string, data []byte) error
	// read returns a file's bytes. The caller must not modify them.
	read(name string) ([]byte, error)
	// truncate durably cuts a file to size bytes.
	truncate(name string, size int64) error
	remove(name string) error
	// list names every file in the store, in no particular order.
	list() ([]string, error)
	// syncDir makes creations, renames and removals durable.
	syncDir() error
}

// segment is one file open for appending.
type segment interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// dirStore keeps a journal's files in a directory.
type dirStore string

func (d dirStore) path(name string) string { return filepath.Join(string(d), name) }

func (d dirStore) create(name string) (segment, error) {
	return os.OpenFile(d.path(name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

// writeAtomic writes a temporary file, syncs it and renames it into
// place; recovery deletes a .tmp left by a crash before the rename.
func (d dirStore) writeAtomic(name string, data []byte) error {
	tmp := d.path(name + ".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		os.Remove(tmp)
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		os.Remove(tmp)
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(name)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

func (d dirStore) read(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d dirStore) truncate(name string, size int64) error {
	f, err := os.OpenFile(d.path(name), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		_ = f.Close() // the truncate error is the one worth reporting
		return err
	}
	// Synced, so the discarded torn bytes can never reappear after a
	// second crash.
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		return err
	}
	return f.Close()
}

func (d dirStore) remove(name string) error { return os.Remove(d.path(name)) }

func (d dirStore) list() ([]string, error) {
	entries, err := os.ReadDir(string(d))
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (d dirStore) syncDir() error {
	f, err := os.Open(string(d))
	if err != nil {
		return err
	}
	err = f.Sync()
	_ = f.Close() // read-only directory handle; nothing to lose
	return err
}

// memStore keeps a journal's files in memory. Nothing survives the
// process, so syncing is free; everything else behaves as on disk.
type memStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemStore() *memStore { return &memStore{files: make(map[string][]byte)} }

// memSegment appends to one memStore file.
type memSegment struct {
	s    *memStore
	name string
}

func (f memSegment) Write(p []byte) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.files[f.name] = append(f.s.files[f.name], p...)
	return len(p), nil
}

func (memSegment) Sync() error  { return nil }
func (memSegment) Close() error { return nil }

func (s *memStore) create(name string) (segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; ok {
		return nil, &fs.PathError{Op: "create", Path: name, Err: fs.ErrExist}
	}
	s.files[name] = []byte{}
	return memSegment{s: s, name: name}, nil
}

func (s *memStore) writeAtomic(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
	return nil
}

// read hands out the stored bytes without copying, capped at their
// length so no caller can append into a live segment's spare capacity.
func (s *memStore) read(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return b[:len(b):len(b)], nil
}

// truncate keeps a copy of the prefix, so bytes read handed out earlier
// are never overwritten by later appends.
func (s *memStore) truncate(name string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	s.files[name] = append([]byte(nil), b[:size]...)
	return nil
}

func (s *memStore) remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(s.files, name)
	return nil
}

func (s *memStore) list() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	return names, nil
}

func (*memStore) syncDir() error { return nil }
