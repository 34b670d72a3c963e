package dsmnc

// The sweep journal: a crash-safe write-ahead log of finished
// (experiment, benchmark, system) cells. Each completed cell is
// appended as one fsync'd JSON line before the sweep counts it as done,
// so a killed multi-hour run can be resumed with `dsmfig -resume`
// re-executing only the cells the journal is missing. An options
// fingerprint stored with every record keeps a resume from silently
// mixing results computed under different machine parameters.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dsmnc/internal/fsdir"
)

// ErrBadJournal marks a sweep journal with a corrupt record body: a
// terminated line that is not a valid cell record. (An *unterminated*
// final line is not corruption but the signature of a crash mid-append;
// it is dropped and overwritten.)
var ErrBadJournal = errors.New("dsmnc: malformed sweep journal")

// ErrJournalMismatch marks a resume whose options fingerprint differs
// from the one a journaled cell was computed under; mixing the two
// would corrupt the experiment.
var ErrJournalMismatch = errors.New("dsmnc: journal does not match the sweep being resumed")

// journalRecord is one line of the journal: the cell's identity, the
// fingerprint of the options that produced it, and its full result.
type journalRecord struct {
	Exp         string `json:"exp"`
	Bench       string `json:"bench"`
	System      string `json:"system"`
	Fingerprint string `json:"fingerprint"`
	Result      Result `json:"result"`
}

// journalKey identifies a cell within a journal.
type journalKey struct{ exp, bench, system string }

// Journal is the write-ahead log handle. It is safe for the concurrent
// appends of a parallel sweep.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	done map[journalKey]journalRecord
}

// OpenJournal opens (creating if needed) the journal at path. With
// resume, existing records are replayed so Options.Journal-driven
// sweeps skip the cells already done: a torn final record — the
// leftover of a crash mid-append — is dropped, while terminated garbage
// fails with ErrBadJournal. Without resume the journal is truncated and
// the sweep starts from nothing.
func OpenJournal(path string, resume bool) (*Journal, error) {
	flags := os.O_CREATE | os.O_RDWR
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	// A freshly created journal is only durable once the directory entry
	// naming it is synced too; without this, a machine crash after the
	// first fsync'd append could lose the whole file.
	if err := fsdir.Sync(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{f: f, path: path, done: map[journalKey]journalRecord{}}
	if resume {
		if err := j.load(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// load replays the journal into the completed-cell index and positions
// the file for appending, truncating away a torn final record.
func (j *Journal) load() error {
	br := bufio.NewReaderSize(j.f, 1<<16)
	var off int64
	for {
		line, err := br.ReadBytes('\n')
		if err == nil {
			var rec journalRecord
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return fmt.Errorf("%w: %s: record at byte %d: %v", ErrBadJournal, j.path, off, jerr)
			}
			if rec.Exp == "" || rec.Bench == "" || rec.System == "" || rec.Fingerprint == "" {
				return fmt.Errorf("%w: %s: record at byte %d is missing its cell key", ErrBadJournal, j.path, off)
			}
			j.done[journalKey{rec.Exp, rec.Bench, rec.System}] = rec
			off += int64(len(line))
			continue
		}
		if err != io.EOF {
			return err
		}
		if len(line) > 0 {
			// Unterminated tail: the previous run died inside an append.
			// Drop the fragment so the next append starts on a record
			// boundary; the cell it described simply re-runs.
			if terr := j.f.Truncate(off); terr != nil {
				return terr
			}
		}
		_, err = j.f.Seek(off, io.SeekStart)
		return err
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Completed returns how many finished cells the journal holds.
func (j *Journal) Completed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// lookup returns the journaled result for a cell. A record whose
// fingerprint differs from the current options fails with
// ErrJournalMismatch: the journal belongs to a different sweep.
func (j *Journal) lookup(exp, bench, system, fingerprint string) (Result, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.done[journalKey{exp, bench, system}]
	if !ok {
		return Result{}, false, nil
	}
	if rec.Fingerprint != fingerprint {
		return Result{}, false, fmt.Errorf(
			"%w: cell %s/%s/%s was journaled under options fingerprint %s, this sweep runs %s",
			ErrJournalMismatch, exp, bench, system, rec.Fingerprint, fingerprint)
	}
	return rec.Result, true, nil
}

// append durably records one finished cell: a single JSON line, fsync'd
// before the cell counts as done. A torn append (crash between write
// and sync) leaves an unterminated tail that the next resume drops.
func (j *Journal) append(rec journalRecord) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.done[journalKey{rec.Exp, rec.Bench, rec.System}] = rec
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// fingerprint condenses the result-determining options — geometry,
// processor caches, workload scale, interleaving grain, latency table,
// checking — into an FNV-64a hex token stored with every journal
// record. Runtime-only knobs (KeepGoing, CellTimeout, Journal, Retries,
// Progress) are excluded: they change how a sweep runs, not what its
// cells compute.
func (o Options) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "geo=%dx%d l1=%d/%d scale=%d q=%d lat=%+v check=%t",
		o.Geometry.Clusters, o.Geometry.ProcsPerCluster,
		o.L1Bytes, o.L1Ways, o.Scale, o.Quantum, o.Latencies, o.Check)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint returns the options fingerprint journaled sweeps store
// with every cell record: a stable token over the result-determining
// parameters. The serving layer keys its idempotent job IDs and result
// cache on it, so two submissions only coalesce when they would compute
// the same thing.
func (o Options) Fingerprint() string { return o.fingerprint() }
