package dsmnc

// The split half of the equivalence corpus: every committed golden cell
// is cut into 2 and 4 shards of its reference stream, each shard run by
// a fresh runCell — new Sampler, new Progress, machine restored from
// the previous shard's checkpoint — the way a cell killed and restarted
// between checkpoints runs. The last shard must reproduce the corpus
// exactly: same reference count, field-identical counters, and
// byte-identical sampler series (via the committed SHA-256 digests).
// This drives runCell's one delivery path through every resume case it
// has: a restored prefix dropped a chunk at a time, ApplyBatch runs cut
// at checkpoint and cancellation boundaries, and per-run progress. The
// event trace is not carried across a restore, so these replays attach
// the sampler only and compare the trace-independent digest fields; the
// full five-field digests stay pinned by TestDifferentialEquivalence.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dsmnc/telemetry"
	"dsmnc/workload"
)

// goldenShardCounts is the split axis: how many shards each cell's
// reference stream is cut into, one runCell life per shard.
var goldenShardCounts = []int{2, 4}

// cancelAtRefs is a context that reports cancellation once p has
// counted cut applied references. runCell polls Err every 1024 applied
// references, so with cut a multiple of 1024 a life stops exactly at
// its cut, right after the checkpoint that lands there.
type cancelAtRefs struct {
	context.Context
	p   *Progress
	cut int64
}

func (c *cancelAtRefs) Err() error {
	if c.p.Refs.Load() >= c.cut {
		return context.Canceled
	}
	return nil
}

// runSplitCell replays one corpus cell of refs references as shards
// consecutive runCell lives sharing a checkpoint directory, and returns
// the last life's outcome.
func runSplitCell(t *testing.T, sys System, benchName string, shards int, refs int64) diffOutcome {
	t.Helper()
	opt := DefaultOptions()
	opt.Scale = workload.ScaleSmall
	opt.CheckpointDir = t.TempDir()
	// Each shard is a whole number of cancellation polls, so every cut
	// is a checkpoint and a poll at once.
	per := (refs/int64(shards) + 1023) / 1024 * 1024
	opt.CheckpointEvery = per
	bench := workload.ByName(benchName, opt.Scale)
	if bench == nil {
		t.Fatalf("unknown workload %q", benchName)
	}
	for life := 1; ; life++ {
		opt.Sampler = telemetry.NewSampler(diffSampleEvery, telemetry.DefaultCapacity)
		prog := &Progress{}
		opt.Progress = prog
		ctx := &cancelAtRefs{Context: context.Background(), p: prog, cut: per}
		res, err := runCell(ctx, "golden-split", runJob{bench: bench, sys: sys, opt: opt})
		applied := prog.Refs.Load()
		if life < shards {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("shard %d of %d: error = %v, want context.Canceled", life, shards, err)
			}
			if applied != per {
				t.Fatalf("shard %d of %d applied %d refs, want %d", life, shards, applied, per)
			}
			if n := len(checkpointFiles(t, opt.CheckpointDir)); n != 1 {
				t.Fatalf("checkpoint files after shard %d = %d, want 1", life, n)
			}
			continue
		}
		if err != nil {
			t.Fatalf("last shard: %v", err)
		}
		// The last life resumes where the one before it stopped: no
		// reference is lost or applied twice across the cuts.
		if want := refs - int64(shards-1)*per; applied != want {
			t.Fatalf("last shard applied %d refs, want %d", applied, want)
		}
		if n := len(checkpointFiles(t, opt.CheckpointDir)); n != 0 {
			t.Fatalf("checkpoint files after the last shard = %d, want 0", n)
		}
		var series bytes.Buffer
		if err := opt.Sampler.WriteJSONL(&series); err != nil {
			t.Fatal(err)
		}
		return diffOutcome{
			Refs:       res.Refs,
			Stats:      res.Counters,
			SamplerLen: opt.Sampler.Len(),
			SamplerSHA: shaHex(series.Bytes()),
		}
	}
}

// TestGoldenStatsSharded replays the full golden corpus split at every
// shard count and diffs field-level counters against testdata/golden
// plus SHA-256 digests against testdata/difftest. It never regenerates
// anything: a resumed cell must match the corpus an uninterrupted run
// committed.
func TestGoldenStatsSharded(t *testing.T) {
	for _, shards := range goldenShardCounts {
		for _, sys := range diffSystems() {
			for _, benchName := range diffBenches(testing.Short()) {
				shards, sys, benchName := shards, sys, benchName
				t.Run(fmt.Sprintf("shards=%d/%s", shards, cellName(sys, benchName)), func(t *testing.T) {
					t.Parallel()
					goldenPath := filepath.Join("testdata", "golden", cellName(sys, benchName)+".json")
					raw, err := os.ReadFile(goldenPath)
					if err != nil {
						t.Fatalf("no committed golden (generate with the sequential suite first): %v", err)
					}
					var want goldenCell
					if err := json.Unmarshal(raw, &want); err != nil {
						t.Fatalf("corrupt golden file %s: %v", goldenPath, err)
					}

					got := runSplitCell(t, sys, benchName, shards, want.Refs)
					if got.Refs != want.Refs {
						t.Errorf("Refs drifted from the corpus: got %d, want %d", got.Refs, want.Refs)
					}
					diffCounters(t, got.Stats, want.Stats)

					digestPath := filepath.Join("testdata", "difftest", cellName(sys, benchName)+".json")
					raw, err = os.ReadFile(digestPath)
					if err != nil {
						t.Fatalf("no committed digest: %v", err)
					}
					var wantDigest diffDigest
					if err := json.Unmarshal(raw, &wantDigest); err != nil {
						t.Fatalf("corrupt digest file %s: %v", digestPath, err)
					}
					gotDigest, err := got.digest()
					if err != nil {
						t.Fatal(err)
					}
					if gotDigest.StatsSHA != wantDigest.StatsSHA {
						t.Errorf("stats digest drifted from the corpus")
					}
					if gotDigest.SamplerLen != wantDigest.SamplerLen || gotDigest.SamplerSHA != wantDigest.SamplerSHA {
						t.Errorf("sampler series drifted from the corpus: got %d samples sha %.12s, want %d samples sha %.12s",
							gotDigest.SamplerLen, gotDigest.SamplerSHA, wantDigest.SamplerLen, wantDigest.SamplerSHA)
					}
				})
			}
		}
	}
}
