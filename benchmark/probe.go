package main

import (
	"bufio"
	"bytes"
	"fmt"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/rng"
	"ballsintoleaves/internal/wire"
)

// The direct probes time two layers the decorators cannot isolate, by
// calling them the way the server does, single-threaded and off the network.

// probeEpoch is service.epoch_ns_per_grant: AcquireBatch → CloseEpoch →
// ReleaseBatch of `batch` requests on one volatile shard three quarters
// full, so the free-pool walk matches the standing population's. It returns
// nanoseconds per grant.
func probeEpoch(cfg runConfig, batch int) (float64, error) {
	batch = max(1, min(batch, cfg.shardCap/4))
	svc, err := namesvc.Open(namesvc.Config{
		ShardCap: cfg.shardCap,
		Seed:     serviceSeed,
		Runner:   namesvc.CohortRunner{},
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()

	// Fill the shard, then free a seeded random quarter.
	var ops []namesvc.AcquireOp
	for i := 0; i < cfg.shardCap; i++ {
		ops = append(ops, namesvc.AcquireOp{Client: uint64(i + 1)})
	}
	if _, err := svc.AcquireBatch(0, ops, nil); err != nil {
		return 0, err
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil {
		return 0, err
	}
	if len(grants) != cfg.shardCap {
		return 0, fmt.Errorf("epoch probe: filled %d of %d names", len(grants), cfg.shardCap)
	}
	var rel []namesvc.ReleaseOp
	for _, i := range rng.Derive(cfg.seed, 301).Perm(len(grants))[:cfg.shardCap/4] {
		rel = append(rel, namesvc.ReleaseOp{Client: grants[i].Client, Name: grants[i].Name})
	}
	if _, err := svc.ReleaseBatch(0, rel, nil); err != nil {
		return 0, err
	}

	ops = ops[:batch]
	rel = rel[:0]
	var ids []uint64
	var errs []error
	granted := 0
	start := time.Now()
	for time.Since(start) < cfg.probeFor {
		if ids, err = svc.AcquireBatch(0, ops, ids[:0]); err != nil {
			return 0, err
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			return 0, err
		}
		rel = rel[:0]
		for _, g := range grants {
			rel = append(rel, namesvc.ReleaseOp{Client: g.Client, Name: g.Name})
		}
		if errs, err = svc.ReleaseBatch(0, rel, errs[:0]); err != nil {
			return 0, err
		}
		granted += len(grants)
	}
	return ratio(float64(time.Since(start)), float64(granted)), nil
}

// probeFrame is wire.frame_ns: one AppendFrame plus one ReadFrameBuffered of
// an acquire-sized frame (op byte, tag, 64-bit client ID), in bursts of the
// server's ingest limit. It returns nanoseconds per frame.
func probeFrame(cfg runConfig) (float64, error) {
	const burst = 512 // namesvc's maxIngestBurst
	const maxFrame = 1 << 16
	var w wire.Writer
	ids := rng.Derive(cfg.seed, 302)
	var out, rbuf []byte
	src := bytes.NewReader(nil)
	br := bufio.NewReaderSize(src, 64<<10)
	frames := 0
	start := time.Now()
	for time.Since(start) < cfg.probeFor {
		out = out[:0]
		for i := 0; i < burst; i++ {
			w.Reset()
			w.Byte(2)
			w.Uvarint(uint64(frames + i + 1))
			w.Uvarint(ids.Uint64())
			out = wire.AppendFrame(out, w.Bytes())
		}
		src.Reset(out)
		br.Reset(src)
		// The server blocks for the first frame and drains the rest from
		// the buffer.
		body, err := wire.ReadFrame(br, rbuf, maxFrame)
		if err != nil {
			return 0, err
		}
		rbuf = body
		n := 1
		for {
			body, ok, err := wire.ReadFrameBuffered(br, rbuf, maxFrame)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			rbuf = body
			n++
		}
		if n != burst {
			return 0, fmt.Errorf("frame probe: read %d of %d frames", n, burst)
		}
		frames += n
	}
	return ratio(float64(time.Since(start)), float64(frames)), nil
}
