package main

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fgpsim/internal/chaos"
)

// timingDisk is the server's filesystem seam (server.Config.Disk): it passes
// every operation to chaos.OS and, while on is set, times the writes and
// fsyncs of journal files and snapshot files separately. A file is a
// snapshot when it lives in a directory named "snapshots" (the server's
// snapshot directory); every other file it opens for writing is a journal.
type timingDisk struct {
	chaos.OS
	on atomic.Bool

	mu           sync.Mutex
	journalSyncs int64
	journalSync  time.Duration
	snapFiles    int64
	snapBytes    int64
	snapTime     time.Duration // write + fsync time of snapshot files
}

func isSnapshot(path string) bool { return filepath.Base(filepath.Dir(path)) == "snapshots" }

func (d *timingDisk) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	f, err := d.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, d: d, snap: isSnapshot(name)}, nil
}

func (d *timingDisk) CreateTemp(dir, pattern string) (chaos.File, error) {
	f, err := d.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	snap := isSnapshot(f.Name())
	if snap && d.on.Load() {
		d.mu.Lock()
		d.snapFiles++
		d.mu.Unlock()
	}
	return &timedFile{File: f, d: d, snap: snap}, nil
}

// timedFile times Write and Sync on one open file.
type timedFile struct {
	chaos.File
	d    *timingDisk
	snap bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	if f.snap && f.d.on.Load() {
		el := time.Since(t0)
		f.d.mu.Lock()
		f.d.snapBytes += int64(n)
		f.d.snapTime += el
		f.d.mu.Unlock()
	}
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if f.d.on.Load() {
		el := time.Since(t0)
		f.d.mu.Lock()
		if f.snap {
			f.d.snapTime += el
		} else {
			f.d.journalSyncs++
			f.d.journalSync += el
		}
		f.d.mu.Unlock()
	}
	return err
}
