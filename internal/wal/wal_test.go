package wal

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"subtraj/internal/traj"
)

// memFile is an in-memory File with optional injected faults, the test
// double behind the wal.File seam.
type memFile struct {
	data []byte
	// tornAfter, when ≥ 0, makes the next Write persist only tornAfter
	// bytes and return an error (a torn write: power loss mid-write).
	tornAfter int
	// shortAfter, when ≥ 0, makes the next Write persist shortAfter
	// bytes and return n < len(p) with no error (a short write).
	shortAfter int
	// syncErr, when set, is returned by the next Sync (and the fault
	// then clears, like a transient EIO).
	syncErr error
	// truncErr, when set, fails every Truncate.
	truncErr error
	syncs    int
}

func newMemFile() *memFile { return &memFile{tornAfter: -1, shortAfter: -1} }

func (m *memFile) Write(p []byte) (int, error) {
	if m.tornAfter >= 0 {
		n := min(m.tornAfter, len(p))
		m.data = append(m.data, p[:n]...)
		m.tornAfter = -1
		return n, errors.New("injected torn write")
	}
	if m.shortAfter >= 0 {
		n := min(m.shortAfter, len(p))
		m.data = append(m.data, p[:n]...)
		m.shortAfter = -1
		return n, nil
	}
	m.data = append(m.data, p...)
	return len(p), nil
}

func (m *memFile) Sync() error {
	if err := m.syncErr; err != nil {
		m.syncErr = nil
		return err
	}
	m.syncs++
	return nil
}

func (m *memFile) Truncate(size int64) error {
	if m.truncErr != nil {
		return m.truncErr
	}
	if size < int64(len(m.data)) {
		m.data = m.data[:size]
	}
	return nil
}

func (m *memFile) Close() error { return nil }

func tr(path ...traj.Symbol) traj.Trajectory {
	times := make([]float64, len(path))
	for i := range times {
		times[i] = float64(100*i) + 0.5
	}
	return traj.Trajectory{Path: path, Times: times}
}

func collect(t *testing.T, data []byte) ([]Record, ReplayInfo) {
	t.Helper()
	var recs []Record
	info, err := ReplayBytes(data, func(r Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayBytes: %v", err)
	}
	return recs, info
}

func TestRoundTrip(t *testing.T) {
	f := newMemFile()
	w, err := NewWriter(f, 7, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := []traj.Trajectory{tr(1, 2, 3), tr(9), {Path: []traj.Symbol{4, 5}, Times: nil}}
	for _, x := range want[:2] {
		if err := w.Append([]traj.Trajectory{x}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(want[2:]); err != nil {
		t.Fatal(err)
	}
	recs, info := collect(t, f.data)
	if info.Truncated || info.Records != 3 || info.BaseGen != 7 || info.EndGen != 10 {
		t.Fatalf("bad info: %+v", info)
	}
	if info.GoodBytes != int64(len(f.data)) {
		t.Fatalf("GoodBytes %d != file size %d", info.GoodBytes, len(f.data))
	}
	for i, r := range recs {
		if r.Gen != uint64(8+i) {
			t.Errorf("record %d gen = %d, want %d", i, r.Gen, 8+i)
		}
		if !reflect.DeepEqual(r.Path, want[i].Path) {
			t.Errorf("record %d path = %v, want %v", i, r.Path, want[i].Path)
		}
		if len(r.Times) != len(want[i].Times) {
			t.Errorf("record %d times = %v, want %v", i, r.Times, want[i].Times)
		}
		for j := range r.Times {
			if math.Float64bits(r.Times[j]) != math.Float64bits(want[i].Times[j]) {
				t.Errorf("record %d time %d not bit-equal", i, j)
			}
		}
	}
	if f.syncs < 4 { // header + one per append
		t.Errorf("SyncAlways issued %d fsyncs, want ≥ 4", f.syncs)
	}
	st := w.StatsSnapshot()
	if st.Gen != 10 || st.Records != 3 || st.Bytes != int64(len(f.data)) {
		t.Fatalf("bad stats: %+v", st)
	}
}

func TestSpecialFloatTimesRoundTrip(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
	in := traj.Trajectory{Path: []traj.Symbol{1}, Times: []float64{math.Inf(1), math.NaN(), -0.0}}
	if err := w.Append([]traj.Trajectory{in}); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, f.data)
	for j, v := range in.Times {
		if math.Float64bits(recs[0].Times[j]) != math.Float64bits(v) {
			t.Errorf("time %d not bit-preserved", j)
		}
	}
}

func TestTornWriteTruncatesTail(t *testing.T) {
	for cut := 0; cut < 20; cut++ {
		f := newMemFile()
		w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
		if err := w.Append([]traj.Trajectory{tr(1, 2, 3)}); err != nil {
			t.Fatal(err)
		}
		good := len(f.data)
		f.tornAfter = cut
		f.truncErr = errors.New("no truncate either") // simulate full power loss
		if err := w.Append([]traj.Trajectory{tr(4, 5, 6)}); err == nil {
			t.Fatal("torn write not reported")
		}
		recs, info := collect(t, f.data)
		if len(recs) != 1 || recs[0].Gen != 1 {
			t.Fatalf("cut %d: replay returned %d records", cut, len(recs))
		}
		if cut > 0 && (!info.Truncated || info.GoodBytes != int64(good)) {
			t.Fatalf("cut %d: tail not reported torn: %+v", cut, info)
		}
	}
}

func TestShortWriteRollsBack(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
	if err := w.Append([]traj.Trajectory{tr(1)}); err != nil {
		t.Fatal(err)
	}
	good := len(f.data)
	f.shortAfter = 5
	if err := w.Append([]traj.Trajectory{tr(2)}); err == nil {
		t.Fatal("short write not reported")
	}
	// Truncate succeeded, so the file is rolled back and the writer
	// still works.
	if len(f.data) != good {
		t.Fatalf("file not rolled back: %d != %d", len(f.data), good)
	}
	if err := w.Append([]traj.Trajectory{tr(3)}); err != nil {
		t.Fatalf("writer should have recovered after rollback: %v", err)
	}
	recs, info := collect(t, f.data)
	if info.Truncated || len(recs) != 2 {
		t.Fatalf("replay after rollback: %d records, %+v", len(recs), info)
	}
	if recs[1].Path[0] != 3 || recs[1].Gen != 2 {
		t.Fatalf("generation reused wrongly: %+v", recs[1])
	}
}

func TestFsyncFailureBreaksWriter(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncAlways})
	f.syncErr = errors.New("injected EIO")
	f.truncErr = errors.New("device gone")
	if err := w.Append([]traj.Trajectory{tr(1)}); err == nil {
		t.Fatal("fsync failure not reported")
	}
	if err := w.Append([]traj.Trajectory{tr(2)}); err == nil {
		t.Fatal("writer must stay broken after a failed fsync + failed rollback")
	}
	if g := w.Gen(); g != 0 {
		t.Fatalf("failed append acknowledged: gen = %d", g)
	}
}

func TestFsyncFailureWithRollbackRecovers(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncAlways})
	f.syncErr = errors.New("injected EIO")
	if err := w.Append([]traj.Trajectory{tr(1)}); err == nil {
		t.Fatal("fsync failure not reported")
	}
	// Rollback truncate succeeded: the frame is gone and the writer may
	// continue; nothing was acknowledged.
	if err := w.Append([]traj.Trajectory{tr(2)}); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	recs, _ := collect(t, f.data)
	if len(recs) != 1 || recs[0].Path[0] != 2 || recs[0].Gen != 1 {
		t.Fatalf("bad surviving records: %+v", recs)
	}
}

func TestBatchFrameIsAtomic(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
	if err := w.Append([]traj.Trajectory{tr(1), tr(2), tr(3)}); err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), f.data...)
	// Cut the batch frame anywhere: replay must deliver zero of its
	// records, never a partial batch.
	for cut := headerSize + 1; cut < len(full); cut++ {
		recs, info := collect(t, full[:cut])
		if len(recs) != 0 {
			t.Fatalf("cut %d: partial batch visible (%d records)", cut, len(recs))
		}
		if !info.Truncated {
			t.Fatalf("cut %d: torn batch not reported", cut)
		}
	}
	recs, _ := collect(t, full)
	if len(recs) != 3 {
		t.Fatalf("full batch: %d records", len(recs))
	}
}

func TestEveryByteCorruption(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
	var want []traj.Trajectory
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 8; i++ {
		x := tr(traj.Symbol(rng.Intn(1000)), traj.Symbol(rng.Intn(1000)), traj.Symbol(i))
		want = append(want, x)
		if err := w.Append([]traj.Trajectory{x}); err != nil {
			t.Fatal(err)
		}
	}
	orig := append([]byte(nil), f.data...)
	var origRecs []Record
	if origRecs, _ = collect(t, orig); len(origRecs) != 8 {
		t.Fatalf("baseline: %d records", len(origRecs))
	}

	// Flip every byte in turn. Replay must never panic and must only
	// ever return a prefix of the original record sequence (bit-equal),
	// or fail the header check — silent divergence is the one forbidden
	// outcome.
	for pos := 0; pos < len(orig); pos++ {
		data := append([]byte(nil), orig...)
		data[pos] ^= 0xA5
		var recs []Record
		info, err := ReplayBytes(data, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			if pos >= headerSize {
				t.Fatalf("pos %d: body corruption must truncate, not error: %v", pos, err)
			}
			continue // header corruption fails loudly — allowed
		}
		if len(recs) > len(origRecs) {
			t.Fatalf("pos %d: more records than written", pos)
		}
		for i, r := range recs {
			o := origRecs[i]
			if r.Gen != o.Gen && pos >= headerSize {
				t.Fatalf("pos %d: record %d gen diverged", pos, i)
			}
			if pos < headerSize {
				continue // baseGen flips renumber but cannot pass frame 0's check
			}
			if !reflect.DeepEqual(r.Path, o.Path) {
				t.Fatalf("pos %d: record %d path diverged: %v vs %v", pos, i, r.Path, o.Path)
			}
			for j := range r.Times {
				if math.Float64bits(r.Times[j]) != math.Float64bits(o.Times[j]) {
					t.Fatalf("pos %d: record %d time %d diverged", pos, i, j)
				}
			}
		}
		if pos >= headerSize && len(recs) == len(origRecs) && !info.Truncated {
			t.Fatalf("pos %d: corruption invisible to replay", pos)
		}
	}
}

func TestOpenOrCreateLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")

	w, info, err := OpenOrCreate(path, Options{Policy: SyncAlways}, func(Record) error {
		t.Fatal("fresh log replayed records")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.BaseGen != 0 || info.Records != 0 {
		t.Fatalf("fresh info: %+v", info)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append([]traj.Trajectory{tr(traj.Symbol(10 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn tail, then reopen: the valid prefix replays, the
	// tail is physically truncated, and appending continues.
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed []Record
	w, info, err = OpenOrCreate(path, Options{Policy: SyncAlways}, func(r Record) error {
		replayed = append(replayed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Truncated || len(replayed) != 3 || info.EndGen != 3 {
		t.Fatalf("reopen after tear: %+v, %d records", info, len(replayed))
	}
	if st, _ := os.Stat(path); st.Size() != info.GoodBytes {
		t.Fatalf("torn tail not truncated: %d != %d", st.Size(), info.GoodBytes)
	}
	if err := w.Append([]traj.Trajectory{tr(77)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	replayed = replayed[:0]
	_, info, err = OpenOrCreate(path, Options{Policy: SyncAlways}, func(r Record) error {
		replayed = append(replayed, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Truncated || len(replayed) != 4 || replayed[3].Path[0] != 77 || replayed[3].Gen != 4 {
		t.Fatalf("final replay: %+v, %+v", info, replayed)
	}
}

func TestOpenOrCreateTornHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, []byte(magic[:5]), 0o644); err != nil {
		t.Fatal(err)
	}
	w, info, err := OpenOrCreate(path, Options{}, func(Record) error { return nil })
	if err != nil {
		t.Fatalf("torn header must recreate: %v", err)
	}
	if info.BaseGen != 0 {
		t.Fatalf("recreated baseGen = %d", info.BaseGen)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Garbage that is not a header prefix must fail loudly instead.
	if err := os.WriteFile(path, []byte("GARBAGE-NOT-A-WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenOrCreate(path, Options{}, func(Record) error { return nil }); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("garbage file: err = %v, want ErrBadHeader", err)
	}
}

func TestSyncIntervalPolicy(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncInterval, Interval: time.Hour})
	headerSyncs := f.syncs
	for i := 0; i < 10; i++ {
		if err := w.Append([]traj.Trajectory{tr(traj.Symbol(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if f.syncs != headerSyncs {
		t.Fatalf("interval policy fsynced %d times inside the interval", f.syncs-headerSyncs)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.syncs != headerSyncs+1 {
		t.Fatalf("explicit Sync did not fsync")
	}
	if err := w.Sync(); err != nil { // clean: no-op
		t.Fatal(err)
	}
	if f.syncs != headerSyncs+1 {
		t.Fatalf("clean Sync fsynced anyway")
	}
}

func TestOnFsyncHook(t *testing.T) {
	f := newMemFile()
	var calls int
	w, err := NewWriter(f, 0, Options{Policy: SyncAlways, OnFsync: func(d time.Duration) {
		if d < 0 {
			t.Errorf("negative fsync duration")
		}
		calls++
	}})
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]traj.Trajectory{tr(1)})
	if calls < 2 { // header + append
		t.Fatalf("OnFsync called %d times", calls)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	f := newMemFile()
	w, _ := NewWriter(f, 0, Options{Policy: SyncNever})
	big := traj.Trajectory{Path: make([]traj.Symbol, maxFrameBytes/2)}
	if err := w.Append([]traj.Trajectory{big, big, big}); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// The writer must remain usable — nothing was written.
	if err := w.Append([]traj.Trajectory{tr(1)}); err != nil {
		t.Fatal(err)
	}
	recs, info := collect(t, f.data)
	if info.Truncated || len(recs) != 1 {
		t.Fatalf("log damaged by rejected frame: %+v", info)
	}
}
