package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreAppendReloadDedup(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	recs := []Record{
		{Unit: 0, RateIdx: 0, TrialIdx: 0, Rate: 0.1, Seed: 7, Value: 1},
		{Unit: 0, RateIdx: 0, TrialIdx: 1, Rate: 0.1, Seed: 8, Value: 0},
		{Unit: 1, RateIdx: 2, TrialIdx: 0, Rate: 0.5, Seed: 9, Value: 0.25},
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// A duplicate key must not grow the store.
	if err := st.Append(recs[0]); err != nil {
		t.Fatalf("dup append: %v", err)
	}
	if got := st.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if v, ok := st.Lookup(1, 2, 0); !ok || v != 0.25 {
		t.Errorf("lookup = %v,%v; want 0.25,true", v, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if got := st2.Count(); got != 3 {
		t.Errorf("reloaded count = %d, want 3", got)
	}
	if xs := st2.CellValues(0, 0, 2); len(xs) != 2 || xs[0] != 1 || xs[1] != 0 {
		t.Errorf("cell values = %v, want [1 0]", xs)
	}
}

func TestStoreToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Append(Record{Unit: 0, RateIdx: 0, TrialIdx: 0, Value: 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	st.Close()
	// Simulate a crash mid-write: a torn, unparseable trailing line.
	path := filepath.Join(dir, storeFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"u":0,"r":0,"t":1,"v":0.`)
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn line: %v", err)
	}
	defer st2.Close()
	if got := st2.Count(); got != 1 {
		t.Errorf("count = %d, want 1 (torn line dropped)", got)
	}
	// The dropped trial can be re-recorded.
	if err := st2.Append(Record{Unit: 0, RateIdx: 0, TrialIdx: 1, Value: 0.5}); err != nil {
		t.Fatalf("re-append: %v", err)
	}
	if v, ok := st2.Lookup(0, 0, 1); !ok || v != 0.5 {
		t.Errorf("re-recorded trial = %v,%v", v, ok)
	}
}

// TestStoreToleratesOversizedLine: one absurdly long line (corruption —
// real records are tens of bytes) must not make the campaign permanently
// unresumable. bufio.Scanner would return ErrTooLong and hard-fail Open,
// also losing every record after the bad line.
func TestStoreToleratesOversizedLine(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := st.Append(Record{Unit: 0, RateIdx: 0, TrialIdx: 0, Value: 1}); err != nil {
		t.Fatalf("append: %v", err)
	}
	st.Close()

	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(strings.Repeat("x", maxLineBytes+512) + "\n")
	f.WriteString(`{"u":0,"r":0,"t":2,"v":4}` + "\n") // records after the bad line must survive
	f.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with oversized line: %v", err)
	}
	defer st2.Close()
	if got := st2.Count(); got != 2 {
		t.Errorf("count = %d, want 2 (oversized line dropped, later record kept)", got)
	}
	if v, ok := st2.Lookup(0, 0, 2); !ok || v != 4 {
		t.Errorf("record after oversized line = %v,%v; want 4,true", v, ok)
	}
	// The dropped trial simply reruns.
	if err := st2.Append(Record{Unit: 0, RateIdx: 0, TrialIdx: 1, Value: 0.5}); err != nil {
		t.Fatalf("re-append: %v", err)
	}
	if got := st2.Count(); got != 3 {
		t.Errorf("count after rerun = %d, want 3", got)
	}
}

func TestStoreSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if _, ok, err := st.LoadSpec(); err != nil || ok {
		t.Fatalf("empty store LoadSpec = ok=%v err=%v, want absent", ok, err)
	}
	spec := Spec{Figure: "6.1", Trials: 2, Seed: 42, Quick: true}
	if err := st.SaveSpec(spec); err != nil {
		t.Fatalf("save spec: %v", err)
	}
	got, ok, err := st.LoadSpec()
	if err != nil || !ok {
		t.Fatalf("load spec: ok=%v err=%v", ok, err)
	}
	if got != spec {
		t.Errorf("spec round trip = %+v, want %+v", got, spec)
	}
}

// TestStoreCanonicalize pins the terminal rewrite: records come back in
// (unit, rate, trial) order whatever order they were appended in, a
// garbage line is dropped, and the store keeps taking appends afterwards.
func TestStoreCanonicalize(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	in := []Record{
		{Unit: 1, RateIdx: 0, TrialIdx: 0, Rate: 0.5, Seed: 4, Value: 4},
		{Unit: 0, RateIdx: 1, TrialIdx: 2, Rate: 0.2, Seed: 3, Value: 3},
		{Unit: 0, RateIdx: 1, TrialIdx: 0, Rate: 0.2, Seed: 2, Value: 2},
		{Unit: 0, RateIdx: 0, TrialIdx: 1, Rate: 0.1, Seed: 1, Value: 1},
	}
	for _, r := range in {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	late := Record{Unit: 0, RateIdx: 0, TrialIdx: 0, Rate: 0.1, Seed: 0, Value: 0}
	if err := st.Append(late); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"u":0,"r":0,"t":1,"rate":0.1,"seed":1,"v":1}
{"u":0,"r":1,"t":0,"rate":0.2,"seed":2,"v":2}
{"u":0,"r":1,"t":2,"rate":0.2,"seed":3,"v":3}
{"u":1,"r":0,"t":0,"rate":0.5,"seed":4,"v":4}
{"u":0,"r":0,"t":0,"rate":0.1,"seed":0,"v":0}
`
	if string(b) != want {
		t.Errorf("store after canonicalize + append:\n%s\nwant:\n%s", b, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
}
