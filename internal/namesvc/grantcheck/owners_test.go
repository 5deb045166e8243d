package grantcheck

import (
	"reflect"
	"sync"
	"testing"
)

// TestOwnersReconcilesRevocations drives Owners through the orderings a
// chaos run produces — re-grants racing revocations, late revocations,
// true duplicates — and checks which overlaps Duplicates reports.
func TestOwnersReconcilesRevocations(t *testing.T) {
	const name = 7
	const a, b, c = 1, 2, 3 // one client id per acquire
	cases := []struct {
		desc string
		ops  func(o *Owners)
		want []Hold
	}{
		{"re-grant before the old grant's revocation", func(o *Owners) {
			o.Grant(name, a)
			o.Grant(name, b)
			o.Revoked(a, name)
		}, nil},
		{"re-grant with no revocation", func(o *Owners) {
			o.Grant(name, a)
			o.Grant(name, b)
		}, []Hold{{name, a}}},
		{"an old revocation does not excuse a later duplicate", func(o *Owners) {
			o.Grant(name, a)
			o.Revoked(a, name)
			o.Grant(name, b)
			o.Grant(name, c)
		}, []Hold{{name, b}}},
		{"a raced revocation does not excuse a later duplicate", func(o *Owners) {
			o.Grant(name, a)
			o.Grant(name, b)
			o.Revoked(a, name)
			o.Grant(name, c)
		}, []Hold{{name, b}}},
		{"a late revocation does not clear a newer owner", func(o *Owners) {
			o.Grant(name, a)
			o.Release(name, a)
			o.Grant(name, b)
			o.Revoked(a, name)
			o.Grant(name, c)
		}, []Hold{{name, b}}},
		{"release then re-grant", func(o *Owners) {
			o.Grant(name, a)
			o.Release(name, a)
			o.Grant(name, b)
			o.Release(name, b)
		}, nil},
	}
	for _, tc := range cases {
		o := NewOwners(16)
		tc.ops(o)
		if got := o.Duplicates(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: duplicates %v, want %v", tc.desc, got, tc.want)
		}
	}

	// Concurrent grants and releases of distinct names report nothing.
	const workers, rounds = 4, 1000
	o := NewOwners(workers)
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(name int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				client := uint64(name)<<32 | uint64(i+1)
				o.Grant(name, client)
				o.Release(name, client)
			}
		}(w)
	}
	wg.Wait()
	if got := o.Duplicates(); len(got) != 0 {
		t.Fatalf("distinct names reported duplicates %v", got)
	}
}
