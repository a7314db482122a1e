package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/folder"
)

// openTemp opens a WAL over a fresh cabinet in dir. NoSync keeps unit tests
// off the disk's sync latency; crash-shape tests override.
func openTemp(t *testing.T, dir string, opt Options) (*folder.FileCabinet, *WAL) {
	t.Helper()
	cab := folder.NewCabinet()
	w, err := Open(dir, cab, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cab, w
}

// image returns the canonical encoding of a cabinet's full contents.
func image(t *testing.T, cab *folder.FileCabinet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cab.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reopen recovers dir into a fresh cabinet and returns its image.
func reopen(t *testing.T, dir string) ([]byte, *folder.FileCabinet, *WAL) {
	t.Helper()
	cab := folder.NewCabinet()
	w, err := Open(dir, cab, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return image(t, cab), cab, w
}

func TestRoundTripAllOps(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})

	cab.AppendString("A", "one")
	cab.AppendString("A", "two")
	cab.Put("B", folder.OfStrings("x", "y", "z"))
	if !cab.TestAndAppendString("SEEN", "v1") {
		t.Fatal("TestAndAppend rejected fresh element")
	}
	cab.TestAndAppendString("SEEN", "v1") // duplicate: must not journal
	if _, err := cab.Dequeue("B"); err != nil {
		t.Fatal(err)
	}
	cab.AppendString("GONE", "doomed")
	cab.Delete("GONE")

	// A wholesale Load in the middle of the log must replay too.
	b := folder.NewBriefcase()
	b.Put("L", folder.OfStrings("after-load"))
	var enc bytes.Buffer
	enc.Write(folder.EncodeBriefcase(b))
	if err := cab.Load(&enc); err != nil {
		t.Fatal(err)
	}
	cab.AppendString("L", "tail")

	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	want := image(t, cab)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, cab2, w2 := reopen(t, dir)
	defer w2.Close()
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered image differs:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if cab2.ContainsString("GONE", "doomed") || cab2.ContainsString("A", "one") {
		t.Fatal("pre-Load state leaked through the load record")
	}
	if !cab2.ContainsString("L", "tail") {
		t.Fatal("post-load append lost")
	}
}

func TestRecoveredCabinetKeepsJournaling(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	cab.AppendString("K", "first")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, cab2, w2 := reopen(t, dir)
	cab2.AppendString("K", "second")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	_, cab3, w3 := reopen(t, dir)
	defer w3.Close()
	if got := cab3.Snapshot("K").Strings(); len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("K = %v after two generations", got)
	}
}

// TestGroupCommitBatches proves concurrent barriers share fsyncs: N
// goroutines each record one mutation and Sync; the WAL must issue far
// fewer sync cycles than records.
func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{}) // real fdatasync: contention is the point
	defer w.Close()

	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cab.AppendString("LOG", fmt.Sprintf("w%d-%d", g, i))
				if err := w.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := w.Stats()
	if st.Records != workers*rounds {
		t.Fatalf("records = %d, want %d", st.Records, workers*rounds)
	}
	if st.Syncs >= st.Records {
		t.Fatalf("no batching: %d syncs for %d records", st.Syncs, st.Records)
	}
	t.Logf("group commit: %d records in %d syncs (%.1fx batching)",
		st.Records, st.Syncs, float64(st.Records)/float64(st.Syncs))
}

func TestSyncCleanIsFree(t *testing.T) {
	dir := t.TempDir()
	_, w := openTemp(t, dir, Options{})
	defer w.Close()
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Syncs != 0 {
		t.Fatalf("clean barrier hit the disk: %d syncs", st.Syncs)
	}
}

// TestTornTailTruncated: garbage appended past the last full record (a
// crash mid-append) is discarded; everything acknowledged stays.
func TestTornTailTruncated(t *testing.T) {
	for name, garbage := range map[string][]byte{
		"partial-header": {0x55, 0x01},
		"oversize-len":   {0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 5},
		"crc-mismatch":   {4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'j', 'u', 'n', 'k'},
		// A crash that persists the inode size before the data blocks
		// (delayed allocation) zero-extends the tail; crc32(empty)==0, so
		// without the explicit zero-header rule this would parse as a
		// "valid" empty record and wrongly refuse recovery.
		"zero-extended": make([]byte, 16),
		// A group-commit batch whose fdatasync never returned: the first
		// record's header and a payload prefix persisted, the rest of the
		// batch only as zeros. Nothing after the failed record was ever
		// acknowledged, so recovery must truncate, not refuse.
		"batch-zero-extension": append([]byte{20, 0, 0, 0, 0xaa, 0xbb, 0xcc, 0xdd,
			0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11}, make([]byte, 40)...),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cab, w := openTemp(t, dir, Options{NoSync: true})
			cab.AppendString("D", "keep-1")
			cab.AppendString("D", "keep-2")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			seg := segPath(dir, 1)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, cab2, w2 := reopen(t, dir)
			if got := cab2.Snapshot("D").Strings(); len(got) != 2 {
				t.Fatalf("D = %v after torn-tail recovery", got)
			}
			// The tail was truncated: appending must produce a log that
			// recovers cleanly again.
			cab2.AppendString("D", "keep-3")
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			_, cab3, w3 := reopen(t, dir)
			defer w3.Close()
			if got := cab3.Snapshot("D").Strings(); len(got) != 3 || got[2] != "keep-3" {
				t.Fatalf("D = %v after post-truncation append", got)
			}
		})
	}
}

// TestTornRotationHeaderRecovered: a crash between a rotation's header
// write and its fdatasync can leave the new final segment with a zeroed or
// partially-written header. No record was ever accepted into it, so
// recovery must rewrite the header and carry on, not refuse to boot.
func TestTornRotationHeaderRecovered(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"all-zero":       make([]byte, fileHdrSize),
		"magic-prefix":   append([]byte(segMagic[:5]), make([]byte, fileHdrSize-5)...),
		"zero-extension": make([]byte, fileHdrSize+64),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cab, w := openTemp(t, dir, Options{NoSync: true})
			cab.AppendString("R", "pre-rotation")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath(dir, 2), hdr, 0o644); err != nil {
				t.Fatal(err)
			}
			_, cab2, w2 := reopen(t, dir)
			if !cab2.ContainsString("R", "pre-rotation") {
				t.Fatal("segment-1 data lost across torn rotation")
			}
			cab2.AppendString("R", "post-recovery")
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			_, cab3, w3 := reopen(t, dir)
			defer w3.Close()
			if cab3.FolderLen("R") != 2 {
				t.Fatalf("R has %d elements after reuse of recovered segment", cab3.FolderLen("R"))
			}
		})
	}
}

// TestShortGarbageSegmentRefused: a final segment truncated to a short
// remnant that is NOT a prefix of its expected header is damage to a
// segment that may have held acknowledged records — recovery must refuse,
// not silently rewrite it into an empty segment.
func TestShortGarbageSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	cab.AppendString("G", "acknowledged")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 1), []byte("garbage!!!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, folder.NewCabinet(), Options{NoSync: true}); err == nil {
		t.Fatal("short garbage segment accepted as torn rotation")
	}
}

// TestSyncAfterCloseRefused: a closed WAL drops new records, so a barrier
// arriving after Close must report that rather than claim durability.
func TestSyncAfterCloseRefused(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	cab.AppendString("C", "pre-close")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cab.AppendString("C", "post-close") // silently dropped by the journal
	if err := w.Sync(); !errors.Is(err, ErrWALClosed) {
		t.Fatalf("Sync after Close = %v, want ErrWALClosed", err)
	}
}

// TestMidLogCorruptionRefused: a bit flip in an acknowledged (non-tail)
// record must fail recovery loudly, not silently drop data.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	cab.AppendString("C", "first-record")
	cab.AppendString("C", "second-record")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[fileHdrSize+recordHdrSize+3] ^= 0x40 // inside the first record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, folder.NewCabinet(), Options{NoSync: true}); err == nil {
		t.Fatal("mid-log corruption accepted")
	}
}

// TestCompactionFoldsLog: once the segment outgrows the ratio the log is
// folded into a snapshot, obsolete files vanish, and recovery still
// reproduces the cabinet.
func TestCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true, CompactMinBytes: 1 << 10, CompactRatio: 2})

	elem := bytes.Repeat([]byte("x"), 128)
	for i := 0; i < 100; i++ {
		cab.Append("BULK", elem)
		cab.AppendString("IDS", fmt.Sprintf("id-%d", i))
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// The compactor is a background goroutine; under NoSync nothing in this
	// loop blocks, so on one CPU it may not have been scheduled yet. (With
	// real fdatasync every barrier blocks and hands it the processor.)
	for i := 0; i < 2000 && w.Stats().Compactions == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	want := image(t, cab)
	if err := w.Close(); err != nil { // Close waits out in-flight compaction
		t.Fatal(err)
	}
	if w.Stats().Compactions == 0 {
		t.Fatal("compaction never triggered")
	}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot on disk")
	}
	if len(segs) > 2 {
		t.Fatalf("obsolete segments not pruned: %v", segs)
	}

	got, _, w2 := reopen(t, dir)
	defer w2.Close()
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot+tail recovery differs from live cabinet")
	}
}

// TestStickyFailure: after the segment file dies, Sync reports the error,
// and the in-memory cabinet keeps serving.
func TestStickyFailure(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	cab.AppendString("S", "pre")
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.f.Close() // simulate the disk going away
	w.mu.Unlock()

	cab.AppendString("S", "post")
	if err := w.Sync(); err == nil {
		t.Fatal("Sync succeeded on a dead segment file")
	}
	if w.Err() == nil {
		t.Fatal("failure not sticky")
	}
	if !cab.ContainsString("S", "post") {
		t.Fatal("in-memory cabinet lost the mutation")
	}
	// A failed WAL refuses new records, so seq freezes and "everything
	// synced" is vacuously true — the barrier must still report the error,
	// or meets would acknowledge durability that is lost.
	cab.AppendString("S", "dropped")
	if err := w.Sync(); err == nil {
		t.Fatal("quiescent Sync on a failed WAL returned nil")
	}
	// Close after failure must not hang or double-close panic.
	_ = w.Close()
}

// TestFailureReporting: the first sticky failure fires OnFailure exactly
// once and surfaces in Stats without anyone calling Sync.
func TestFailureReporting(t *testing.T) {
	dir := t.TempDir()
	fired := make(chan error, 2)
	cab := folder.NewCabinet()
	w, err := Open(dir, cab, Options{NoSync: true, OnFailure: func(err error) { fired <- err }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if st := w.Stats(); st.SyncFailures != 0 || st.LastSyncError != "" {
		t.Fatalf("healthy WAL reports failures: %+v", st)
	}

	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	cab.AppendString("S", "x")
	w.Sync()

	select {
	case err := <-fired:
		if err == nil {
			t.Fatal("OnFailure fired with nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnFailure never fired")
	}
	st := w.Stats()
	if st.SyncFailures != 1 {
		t.Fatalf("SyncFailures=%d, want 1", st.SyncFailures)
	}
	if st.LastSyncError == "" {
		t.Fatal("LastSyncError empty after failure")
	}
	// A second failed Sync must not re-fire the callback (failure is
	// sticky, the alarm is one-shot).
	cab.AppendString("S", "y")
	w.Sync()
	select {
	case <-fired:
		t.Fatal("OnFailure fired twice")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSnapshotGapRefused(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true, CompactMinBytes: 256, CompactRatio: 1})
	for i := 0; i < 50; i++ {
		cab.AppendString("G", fmt.Sprintf("row-%d", i))
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000 && w.Stats().Compactions == 0; i++ {
		time.Sleep(time.Millisecond) // let the background compactor run
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Compactions == 0 {
		t.Skip("compaction did not trigger; nothing to corrupt")
	}
	segs, snaps, err := scanDir(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("scan: %v %v", snaps, err)
	}
	// Delete the snapshot's own segment but leave a later one: recovery
	// must refuse the gap rather than replay a disconnected tail.
	last := snaps[len(snaps)-1]
	var hasLater bool
	for _, s := range segs {
		if s > last {
			hasLater = true
		}
	}
	if !hasLater {
		// Force a later segment so the gap is detectable.
		f, err := os.OpenFile(segPath(dir, last+1), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(appendFileHeader(nil, segMagic, last+1))
		f.Close()
	}
	if err := os.Remove(segPath(dir, last)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, folder.NewCabinet(), Options{NoSync: true}); err == nil {
		t.Fatal("segment gap accepted")
	}
}

// TestBatchHistogram pins the records-per-fdatasync distribution Stats
// exposes: one Sync over N pending records is a single barrier of N. NoSync
// keeps the test off disk latency — the histogram counts barriers, not
// syscalls.
func TestBatchHistogram(t *testing.T) {
	dir := t.TempDir()
	cab, w := openTemp(t, dir, Options{NoSync: true})
	for i := 0; i < 5; i++ {
		cab.AppendString("K", fmt.Sprintf("e%d", i))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if got := st.BatchHist[batchBucket(5)]; got != 1 {
		t.Errorf("batch-of-5 bucket = %d, want 1 (hist %v)", got, st.BatchHist)
	}
	var total int64
	for _, n := range st.BatchHist {
		total += n
	}
	if total != st.Syncs {
		t.Errorf("histogram total %d != Syncs %d", total, st.Syncs)
	}
	if s := st.FormatBatchHist(); s != "5-8:1" {
		t.Errorf("FormatBatchHist = %q, want \"5-8:1\"", s)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
