// Package grantcheck checks the name service's exclusivity under faults:
// no two live holders may hold one name at once. Owners is the duplicate
// detector every chaos caller shares (blcluster -chaos, blload and the
// replication tests); Workload is the holder/churn session load they drive
// through the faults.
package grantcheck

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Hold is one acknowledged grant: a name and the client id of the acquire
// that won it. Client ids are unique per acquire, so a Hold names one
// grant, not just one holder.
type Hold struct {
	Name   int
	Client uint64
}

// String renders a Hold reported by Duplicates.
func (h Hold) String() string {
	return fmt.Sprintf("name %d re-granted while still held by client %d", h.Name, h.Client)
}

// Owners is the cross-session duplicate detector. A name's slot holds the
// client id of the grant that owns it, from acknowledgement until its
// release is submitted or its session reports it revoked. Revocation is
// asynchronous — the server frees a dead connection's names the moment
// teardown's releases commit, while the owning session learns of the loss
// only when its reclaim fails after a reconnect — so a legitimate re-grant
// can find the slot still owned. Grant records that overlap as a suspect,
// and Duplicates reconciles the suspects against the revocations at
// settlement: a suspect is a true duplicate only if the grant it overlapped
// was never reported lost.
//
// The newest grant always takes the slot. A late revocation or release of
// an older grant therefore cannot clear a newer owner's slot, and a later
// duplicate of the newer grant is charged to the newer grant, which only
// its own revocation can excuse. The common path is one atomic operation
// per grant and one per release.
type Owners struct {
	slots []atomic.Uint64 // name -> owning grant's client id; 0 = free

	mu       sync.Mutex
	suspects []Hold        // grants a later grant of the same name overlapped
	lost     map[Hold]bool // grants their sessions reported revoked
}

// NewOwners returns a detector for the names 1..capacity.
func NewOwners(capacity int) *Owners {
	return &Owners{slots: make([]atomic.Uint64, capacity+1), lost: make(map[Hold]bool)}
}

// Grant records an acknowledged grant of name to the acquire with this
// client id.
func (o *Owners) Grant(name int, client uint64) {
	if prev := o.slots[name].Swap(client); prev != 0 {
		o.mu.Lock()
		o.suspects = append(o.suspects, Hold{name, prev})
		o.mu.Unlock()
	}
}

// Track records a grant without judging it: the grant owns the slot, but
// an overlap it causes is not a suspect. blload tracks its warmup grants
// this way.
func (o *Owners) Track(name int, client uint64) { o.slots[name].Store(client) }

// Release records a release submission: from this moment the server may
// re-grant the name. Call it before the release frame is sent.
func (o *Owners) Release(name int, client uint64) {
	o.slots[name].CompareAndSwap(client, 0)
}

// Revoked records that the server took a grant back while its session was
// away. Its signature is namesvc.SessionConfig.OnGrantLost's.
func (o *Owners) Revoked(client uint64, name int) {
	o.mu.Lock()
	o.lost[Hold{name, client}] = true
	o.mu.Unlock()
	o.slots[name].CompareAndSwap(client, 0)
}

// Duplicates returns the grants a later grant of the same name overlapped
// and whose loss was never reported: two sessions held acknowledged grants
// for one name at once. Call it only once every session has settled — all
// reclaim passes done, all revocations delivered.
func (o *Owners) Duplicates() []Hold {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []Hold
	for _, h := range o.suspects {
		if !o.lost[h] {
			out = append(out, h)
		}
	}
	return out
}
