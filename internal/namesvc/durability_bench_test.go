package namesvc

import (
	"fmt"
	"testing"

	"ballsintoleaves/internal/namesvc/durable"
)

// buildWAL runs churn against a durable single-shard service until its WAL
// holds at least the requested number of records, with snapshots disabled
// so recovery must replay the whole log. It returns the surviving files.
func buildWAL(b *testing.B, records int) *durable.MemSink {
	b.Helper()
	sink := durable.NewMemSink()
	svc, err := Open(Config{
		Shards: 1, ShardCap: 512, Seed: 7, MaxBatch: 8,
		Durable: &Durability{
			Sinks:         []durable.Sink{sink},
			Fsync:         FsyncGroup, // appends only: nothing here waits on a flush
			SnapshotEvery: 1 << 30,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	client := uint64(0)
	var held []Grant
	for int(svc.Stats().WALRecords) < records {
		for j := 0; j < 4; j++ {
			client++
			if _, err := svc.Acquire(client, nil); err != nil {
				b.Fatal(err)
			}
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			b.Fatal(err)
		}
		held = append(held, grants...)
		for _, g := range held {
			if err := svc.Release(g.Client, g.Name); err != nil {
				b.Fatal(err)
			}
		}
		held = held[:0]
	}
	// Deliberately not Closed: Close would checkpoint, folding the WAL
	// into a snapshot and leaving nothing to replay. MemSink writes are
	// immediately visible, so the sink already holds the full log.
	return sink
}

// BenchmarkDurableRecovery measures boot recovery as a function of WAL
// length: each iteration recovers a fresh service from a copy of the same
// crash image (an in-memory sink, so this is decode + replay + the boot
// checkpoint, not disk bandwidth).
func BenchmarkDurableRecovery(b *testing.B) {
	for _, records := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			image := buildWAL(b, records)
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				sink := image.Clone()
				b.StartTimer()
				svc, err := Open(Config{
					Shards: 1, ShardCap: 512, Seed: 7, MaxBatch: 8,
					Durable: &Durability{
						Sinks:         []durable.Sink{sink},
						Fsync:         FsyncGroup,
						SnapshotEvery: 1 << 30,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := svc.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
