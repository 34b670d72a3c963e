package dsmnc

// The kill-and-restart half of the equivalence corpus: every committed
// golden cell is run as a series of RunCell lives sharing one
// workload.Bench, the way a sweep retries a cell that was killed. With
// 2 or 4 shards the stream is cut at the shard boundaries, and life k
// is canceled once it has applied k shards; a killed cell restarts
// from reference zero, so each life starts over with a new machine, a
// new Sampler and a new Progress. The last life runs to the end and
// must reproduce the corpus exactly: same reference count,
// field-identical counters, and byte-identical sampler series (via the
// committed SHA-256 digests). This drives RunCell's cancellation cut at
// every shard boundary and checks that a canceled life leaves nothing
// behind — in the bench's generator or anywhere else — that the next
// life can see. These replays attach the sampler only and compare the
// trace-independent digest fields; the full five-field digests stay
// pinned by TestDifferentialEquivalence.

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
// reference stream is cut into; a cell cut into n shards is killed
// n-1 times, once at each inner boundary.
var goldenShardCounts = []int{2, 4}

// cancelAtRefs is a context that reports cancellation once p has
// counted cut applied references. RunCell polls Err every 1024 applied
// references, so with cut a multiple of 1024 a life stops exactly at
// its cut.
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
// consecutive RunCell lives on one bench, killing life k after k
// shards, and returns the last life's outcome.
func runSplitCell(t *testing.T, sys System, benchName string, shards int, refs int64) diffOutcome {
	t.Helper()
	opt := DefaultOptions()
	opt.Scale = workload.ScaleSmall
	// Each shard is a whole number of cancellation polls, so every
	// boundary is a poll.
	per := (refs/int64(shards) + 1023) / 1024 * 1024
	bench := workload.ByName(benchName, opt.Scale)
	if bench == nil {
		t.Fatalf("unknown workload %q", benchName)
	}
	for life := 1; ; life++ {
		opt.Sampler = telemetry.NewSampler(diffSampleEvery, telemetry.DefaultCapacity)
		prog := &Progress{}
		opt.Progress = prog
		ctx := context.Background()
		if life < shards {
			ctx = &cancelAtRefs{Context: ctx, p: prog, cut: int64(life) * per}
		}
		res, err := RunCell(ctx, "", bench, sys, opt)
		applied := prog.Refs.Load()
		if life < shards {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("life %d of %d: error = %v, want context.Canceled", life, shards, err)
			}
			if want := int64(life) * per; applied != want {
				t.Fatalf("life %d of %d applied %d refs, want %d", life, shards, applied, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("last life: %v", err)
		}
		// The last life starts from reference zero: it applies the
		// whole stream, none of it skipped or applied twice.
		if applied != refs {
			t.Fatalf("last life applied %d refs, want %d", applied, refs)
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

// TestGoldenStatsSharded replays the full golden corpus killed and
// restarted at every shard count and diffs field-level counters
// against testdata/golden plus SHA-256 digests against
// testdata/difftest. It never regenerates anything: a restarted cell
// must match the corpus an uninterrupted run committed.
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
