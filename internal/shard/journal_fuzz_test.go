package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fuzzJournalConfig is the run every FuzzOpenJournal input belongs to:
// two 10-sample shards.
var fuzzJournalConfig = Config{N: 20, Seed: 1, ConfigHash: testHash, ShardSize: 10, MaxFailFrac: 1.0}

// FuzzOpenJournal writes a valid journal header followed by the fuzzed
// bytes and opens the file for resume. The open never fails or panics,
// Replay never panics, and recovery is idempotent: reopening the file the
// first open truncated drops no record — so recovery never keeps one whose
// CRC fails — and replays the same number of shards. The seed corpus in
// testdata/fuzz/FuzzOpenJournal holds a complete journal, a torn tail, a
// CRC flip and unparsable lines.
func FuzzOpenJournal(f *testing.F) {
	hdr, err := json.Marshal(headerFor(fuzzJournalConfig))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal.json")
		if err := os.WriteFile(path, append(append(hdr, '\n'), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		replay := func() (restored, dropped int) {
			jnl, err := OpenJournal[float64](path, fuzzJournalConfig)
			if err != nil {
				t.Fatalf("open under a valid header: %v", err)
			}
			defer jnl.Close()
			dropped = jnl.Dropped() // before Replay, which counts invalid envelopes too
			restored, err = jnl.Replay(func(*Envelope[float64]) error { return nil })
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			return restored, dropped
		}
		first, _ := replay()
		again, dropped := replay()
		if dropped != 0 {
			t.Fatalf("reopening the recovered journal dropped %d records", dropped)
		}
		if again != first {
			t.Fatalf("reopen replayed %d shards, first open %d", again, first)
		}
	})
}
