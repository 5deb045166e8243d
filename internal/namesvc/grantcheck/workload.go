package grantcheck

import (
	"fmt"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// keepalive is the holder's stats-op cadence: ops are what notice a dead
// connection, so an idle holder still self-heals between the caller's
// checks.
const keepalive = 50 * time.Millisecond

// Config shapes a Workload.
type Config struct {
	// Session is the base every session is dialed from: addresses, client
	// config, timeouts, backoff and Logf. The workload sets Seed and
	// OnGrantLost per session.
	Session namesvc.SessionConfig
	// Hold is how many names the holder session acquires before Start
	// returns and must still account for at settlement.
	Hold int
	// Churn is how many sessions acquire and release continuously until
	// Settle.
	Churn int
}

// Workload is the chaos load: one holder session whose pre-fault grants
// must survive every fault, and churn sessions acquiring and releasing
// through it, all checked by one Owners.
type Workload struct {
	owners *Owners
	holder *namesvc.Session
	churn  []*namesvc.Session

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Result is a settled Workload's outcome.
type Result struct {
	Held       int    // holder grants reclaimed across every fault and released at settlement
	Revoked    uint64 // holder grants the server revoked, reported through OnGrantLost
	Duplicates []Hold
	Counters   namesvc.SessionCounters // summed over every session
}

// Start dials the holder, acquires its cfg.Hold grants, then dials the
// churn sessions and starts their loops and the holder keepalive.
func Start(cfg Config) (*Workload, error) {
	w := &Workload{stop: make(chan struct{})}
	dial := func(seed uint64) (*namesvc.Session, error) {
		sc := cfg.Session
		sc.Seed = seed
		// Start sets w.owners before the holder is granted anything, and a
		// session reports only grants it held, so no report precedes it.
		sc.OnGrantLost = func(client uint64, name int) { w.owners.Revoked(client, name) }
		return namesvc.DialSession(sc)
	}
	var err error
	if w.holder, err = dial(1); err != nil {
		return nil, fmt.Errorf("dialing holder session: %w", err)
	}
	w.owners = NewOwners(w.holder.Capacity())
	for i := 0; i < cfg.Hold; i++ {
		client := uint64(101 + i)
		g, err := w.holder.AcquireSync(client)
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("holder acquire %d: %w", i, err)
		}
		w.owners.Grant(g.Name, client)
	}
	for i := 0; i < cfg.Churn; i++ {
		s, err := dial(uint64(10 + i))
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("dialing churn-%d: %w", i, err)
		}
		w.churn = append(w.churn, s)
		w.wg.Add(1)
		// Churn i's client ids sit above 2^32, clear of the holder's and
		// of every other worker's.
		go w.churnLoop(s, uint64(i+1)<<32)
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			select {
			case <-w.stop:
				return
			case <-time.After(keepalive):
				w.holder.StatsSync()
			}
		}
	}()
	return w, nil
}

// churnLoop acquires and releases until halted, riding out the timeouts and
// redirects of every fault.
func (w *Workload) churnLoop(s *namesvc.Session, client uint64) {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		client++
		g, err := s.AcquireSync(client)
		if err != nil {
			continue
		}
		w.owners.Grant(g.Name, client)
		w.owners.Release(g.Name, client) // free at release submission
		s.ReleaseSync(g.Name)
	}
}

// Holder is the holder session, for per-round checks while faults fire.
func (w *Workload) Holder() *namesvc.Session { return w.holder }

// halt ends the churn loops and the keepalive and waits for them.
func (w *Workload) halt() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.wg.Wait()
}

// Settle stops the load, waits up to within for the holder to reach a
// leader, then releases the holder's grants and every churn straggler — a
// grant whose release timed out mid-fault. A straggler's release must
// succeed, or the name must have been reported lost (the Session release
// contract). Only then, with every revocation delivered, are duplicates
// reconciled.
func (w *Workload) Settle(within time.Duration) (Result, error) {
	w.halt()
	for deadline := time.Now().Add(within); ; {
		if _, err := w.holder.StatsSync(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return Result{}, fmt.Errorf("holder session never re-reached a leader within %v", within)
		}
		time.Sleep(20 * time.Millisecond)
	}
	held := w.holder.Held()
	res := Result{Held: len(held), Revoked: w.holder.Counters().Lost}
	for name, client := range held {
		w.owners.Release(name, client)
		if err := w.holder.ReleaseSync(name); err != nil {
			return res, fmt.Errorf("releasing reclaimed grant %d: %w", name, err)
		}
	}
	for i, s := range w.churn {
		for name, client := range s.Held() {
			w.owners.Release(name, client)
			if err := s.ReleaseSync(name); err != nil {
				if _, still := s.Held()[name]; still {
					return res, fmt.Errorf("churn-%d releasing straggler %d: %w", i, name, err)
				}
			}
		}
	}
	res.Counters = w.holder.Counters()
	for _, s := range w.churn {
		res.Counters.Add(s.Counters())
	}
	res.Duplicates = w.owners.Duplicates()
	return res, nil
}

// Close stops the load and closes every session.
func (w *Workload) Close() {
	w.halt()
	for _, s := range append([]*namesvc.Session{w.holder}, w.churn...) {
		s.Close()
		s.Wait()
	}
}
