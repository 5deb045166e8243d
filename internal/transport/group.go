package transport

import (
	"errors"
	"fmt"
	"sync"

	"ballsintoleaves/internal/proto"
)

// RunAll drives one process per member over a fresh Loopback hub and
// returns the hub's system-wide Summary: the whole lock-step execution —
// construct, broadcast, collect, halt — in one call. mk builds the process
// for each member (it is called from the spawning goroutine, concurrently
// safe construction is the caller's concern only if mk shares state).
//
// It is the one-shot group primitive the trace and name-service
// determinism tests drive: a caller that wants per-process results or a
// TCP substrate drives Run per endpoint instead.
func RunAll(members []proto.ID, cfg NetConfig, mk func(id proto.ID) (Process, error), maxRounds int) (Summary, error) {
	lb, err := NewLoopback(members, cfg)
	if err != nil {
		return Summary{}, err
	}
	procs := make([]Process, len(members))
	eps := make([]Transport, len(members))
	for i, id := range members {
		if procs[i], err = mk(id); err != nil {
			return Summary{}, fmt.Errorf("transport: building process %v: %w", id, err)
		}
		if eps[i], err = lb.Endpoint(id); err != nil {
			return Summary{}, err
		}
	}
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Run(eps[i], procs[i], maxRounds)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return lb.Summary(), err
	}
	return lb.Summary(), nil
}
