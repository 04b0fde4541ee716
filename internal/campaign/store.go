package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"robustify/internal/fsutil"
)

// storeFile, specFile, and metaFile (see meta.go) are the on-disk layout
// of one campaign directory; lockFile lives in the data root itself and
// serializes daemon ownership of the whole tree.
const (
	storeFile = "trials.jsonl"
	specFile  = "spec.json"
	lockFile  = ".lock"
)

// Record is one completed trial, one JSON line in the store. The
// (Unit, RateIdx, TrialIdx) triple is the trial key: together with the
// spec it pins the trial's seed, so a record is replayable and duplicate
// keys are collapsed on load (values of duplicates are identical by
// construction — trials are deterministic in their seed).
type Record struct {
	Unit     int     `json:"u"`
	RateIdx  int     `json:"r"`
	TrialIdx int     `json:"t"`
	Rate     float64 `json:"rate"`
	Seed     uint64  `json:"seed"`
	Value    float64 `json:"v"`
	// Series is informational (the unit's series name at write time).
	Series string `json:"s,omitempty"`
}

type trialKey struct{ unit, rateIdx, trialIdx int }

// Store is an append-only JSONL results store for one campaign. Every
// Append is flushed to the OS before it returns, so each completed trial
// is a durable checkpoint; a crash can lose at most the line being
// written, and Open tolerates (and drops) a torn trailing line.
type Store struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	have map[trialKey]float64
}

// maxLineBytes bounds how much of one store line is kept in memory while
// loading. A legitimate Record line is tens of bytes; anything beyond the
// cap is corruption (or not our file) and is dropped like a torn line —
// the store keeps loading and only that trial reruns. A bufio.Scanner
// here would instead return ErrTooLong and abandon every later record,
// leaving the campaign permanently unresumable.
const maxLineBytes = 1 << 20

// Open creates (or reopens) the campaign directory and loads every record
// already present, deduplicating by trial key.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store dir: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	st := &Store{dir: dir, have: make(map[trialKey]float64)}
	torn := false
	if data, err := os.Open(path); err == nil {
		tornTail, loadErr := st.load(data)
		closeErr := data.Close()
		if loadErr != nil {
			return nil, fmt.Errorf("campaign: read store: %w", loadErr)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		torn = tornTail
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	// Repair a torn tail before appending: without the terminator, the
	// next record would be glued onto the torn bytes and both would be
	// dropped as one unparseable line on the following load — a durable
	// write silently lost.
	if torn {
		if _, err := f.Write([]byte("\n")); err != nil {
			//lint:errdurability-exempt best-effort close on an already-failing path; the write error is what the caller must see
			f.Close()
			return nil, err
		}
	}
	st.f = f
	st.w = bufio.NewWriter(f)
	return st, nil
}

// load replays the store file into st.have. Unparseable, torn, and
// oversized (>maxLineBytes) lines are skipped — those trials simply
// rerun — so a single corrupt line never blocks reopening a campaign.
// tornTail reports an unterminated final line (crash mid-append): the
// caller must terminate it before appending more records.
func (st *Store) load(data io.Reader) (tornTail bool, err error) {
	r := bufio.NewReaderSize(data, 64*1024)
	for {
		line, tooLong, err := readLine(r)
		if len(line) > 0 && !tooLong {
			var rec Record
			if json.Unmarshal(line, &rec) == nil {
				st.have[trialKey{rec.Unit, rec.RateIdx, rec.TrialIdx}] = rec.Value
			}
		}
		if err == io.EOF {
			return len(line) > 0 || tooLong, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// readLine reads one newline-delimited line, retaining at most
// maxLineBytes of it; the remainder of an oversized line is consumed and
// discarded, with tooLong reporting the overflow. err is io.EOF at end of
// input (the final unterminated line, if any, is still returned).
func readLine(r *bufio.Reader) (line []byte, tooLong bool, err error) {
	for {
		chunk, err := r.ReadSlice('\n')
		if !tooLong {
			line = append(line, chunk...)
			if len(line) > maxLineBytes {
				line, tooLong = nil, true
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return line, tooLong, err
	}
}

// Dir returns the campaign directory backing the store.
func (st *Store) Dir() string { return st.dir }

// Append records one completed trial and flushes it.
//
//lint:durable an Append that returned nil is the resume identity; a dropped error is a lost trial
func (st *Store) Append(rec Record) error {
	_, err := st.Put(rec)
	return err
}

// Put is Append reporting whether the record was new: false means the
// trial was already durable and nothing was written. The check and the
// write happen under one lock, so concurrent writers of the same key —
// two workers racing on a reassigned shard — see exactly one true.
//
//lint:durable Put is Append behind a dedup check; same durability contract
func (st *Store) Put(rec Record) (added bool, err error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := trialKey{rec.Unit, rec.RateIdx, rec.TrialIdx}
	if _, dup := st.have[key]; dup {
		return false, nil // already durable; keep the store free of duplicates
	}
	if _, err := st.w.Write(append(line, '\n')); err != nil {
		return false, err
	}
	if err := st.w.Flush(); err != nil {
		return false, err
	}
	st.have[key] = rec.Value
	return true, nil
}

// Canonicalize rewrites the store in (unit, rate, trial) order, one
// re-marshalled record per key, through an atomic replace. Live stores
// are in completion order, which depends on worker scheduling; a
// completed campaign is canonicalized so that its store is byte-identical
// across worker counts, telemetry on or off, resumes, and local or fleet
// execution. Lines that do not parse are dropped, as Open drops them.
// The store stays open for appends afterwards.
//
//lint:durable the rewrite replaces the resume identity; a dropped error leaves it unverified
func (st *Store) Canonicalize() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return fmt.Errorf("campaign: canonicalize %s: store closed", st.dir)
	}
	if err := st.w.Flush(); err != nil {
		return err
	}
	path := filepath.Join(st.dir, storeFile)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs := make(map[trialKey]Record, len(st.have))
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		line, tooLong, rerr := readLine(r)
		if len(line) > 0 && !tooLong {
			var rec Record
			if json.Unmarshal(line, &rec) == nil {
				recs[trialKey{rec.Unit, rec.RateIdx, rec.TrialIdx}] = rec
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			//lint:errdurability-exempt read-only handle; the read error is what the caller must see
			f.Close()
			return rerr
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	keys := make([]trialKey, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.unit != b.unit {
			return a.unit < b.unit
		}
		if a.rateIdx != b.rateIdx {
			return a.rateIdx < b.rateIdx
		}
		return a.trialIdx < b.trialIdx
	})
	var buf []byte
	for _, k := range keys {
		line, err := json.Marshal(recs[k])
		if err != nil {
			return err
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := fsutil.WriteFileAtomic(path, buf, 0o644); err != nil {
		return err
	}
	// The old handle points at the replaced file; appends must go to the
	// new one. Should the reopen fail, later appends fail on the closed
	// handle instead of landing in an unlinked file.
	cerr := st.f.Close()
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st.f, st.w = nf, bufio.NewWriter(nf)
	return cerr
}

// Lookup returns the recorded value for a trial key of one unit.
func (st *Store) Lookup(unit, rateIdx, trialIdx int) (float64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	v, ok := st.have[trialKey{unit, rateIdx, trialIdx}]
	return v, ok
}

// Size is the store file's current on-disk size in bytes (0 when the
// store is closed or the file cannot be statted).
func (st *Store) Size() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return 0
	}
	fi, err := st.f.Stat()
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Count is the number of distinct completed trials in the store.
func (st *Store) Count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.have)
}

// CellValues returns the recorded values of one (unit, rateIdx) cell in
// trial-index order, skipping gaps — exactly the slice an aggregator
// would have seen for the completed prefix.
func (st *Store) CellValues(unit, rateIdx, trials int) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var xs []float64
	for t := 0; t < trials; t++ {
		if v, ok := st.have[trialKey{unit, rateIdx, t}]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// SaveSpec persists the campaign spec beside the results, atomically: a
// crash mid-write must leave either no spec or a complete one — a torn
// spec.json would make the whole campaign directory unloadable on the
// next boot, turning a resumable campaign into a skipped one.
//
//lint:durable the spec file is what makes a store resumable at all
func (st *Store) SaveSpec(spec Spec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(filepath.Join(st.dir, specFile), append(b, '\n'), 0o644)
}

// LoadSpec reads a previously saved spec; ok is false when none exists.
func (st *Store) LoadSpec() (spec Spec, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(st.dir, specFile))
	if os.IsNotExist(err) {
		return Spec{}, false, nil
	}
	if err != nil {
		return Spec{}, false, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return Spec{}, false, fmt.Errorf("campaign: corrupt %s: %w", specFile, err)
	}
	return spec, true, nil
}

// Close flushes and closes the store file.
//
//lint:durable Close flushes the buffered writer; its error is the last chance to see a failed flush
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.w.Flush()
	if cerr := st.f.Close(); err == nil {
		err = cerr
	}
	st.f = nil
	return err
}
