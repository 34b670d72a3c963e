// Package fsdir holds the directory-durability discipline shared by the
// crash-safe on-disk structures (the sweep journal, the serve job
// ledger): creating or renaming a file is only durable once the parent
// directory's entry for it is synced too. Without it, a machine crash
// after fsync(file) can still lose the file itself — the data blocks
// are on disk but the name pointing at them is not.
package fsdir

import "os"

// Sync fsyncs the directory at path, making previously created or
// renamed entries inside it durable against a machine crash.
func Sync(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
