package clusterserve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// FuzzRingRoute fuzzes the routing function's safety properties over
// arbitrary membership sizes, vnode counts and keys:
//
//   - total: every key maps to a ring member, never a panic;
//   - stable: two rings over the same membership (reversed construction
//     order) agree on every owner — the property that keeps forwarding
//     single-hop, since every node's ring names the same owner;
//   - loop-free under churn: after a join and the matching leave the
//     owner is restored, and mid-churn the key routes to the joiner or
//     keeps its owner, never a third replica.
func FuzzRingRoute(f *testing.F) {
	f.Add(uint8(3), uint8(64), "cfg=0012abcd/m=fair-co2/p=0:6")
	f.Add(uint8(1), uint8(1), "")
	f.Add(uint8(12), uint8(255), "delta/cfg=ffffffff/t=23")
	f.Add(uint8(200), uint8(0), "stream/w=17")
	f.Fuzz(func(t *testing.T, np, vn uint8, key string) {
		npeers := int(np)%12 + 1
		vnodes := int(vn)%256 + 1
		peers := make([]string, npeers)
		for i := range peers {
			peers[i] = fmt.Sprintf("r%d", i)
		}
		ring, err := NewRing(peers, vnodes)
		if err != nil {
			t.Fatalf("valid membership rejected: %v", err)
		}

		owner := ring.Lookup(key)
		if !ring.Contains(owner) {
			t.Fatalf("Lookup(%q) = %q, not a member of %v", key, owner, peers)
		}

		reversed := make([]string, npeers)
		for i := range peers {
			reversed[i] = peers[npeers-1-i]
		}
		ring2, err := NewRing(reversed, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		if got := ring2.Lookup(key); got != owner {
			t.Fatalf("Lookup(%q) unstable across construction order: %q vs %q", key, owner, got)
		}

		grown, err := ring.With("joiner")
		if err != nil {
			t.Fatal(err)
		}
		mid := grown.Lookup(key)
		if mid != owner && mid != "joiner" {
			t.Fatalf("join moved %q from %q to incumbent %q", key, owner, mid)
		}
		back, err := grown.Without("joiner")
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Lookup(key); got != owner {
			t.Fatalf("join+leave did not restore owner of %q: %q vs %q", key, got, owner)
		}
	})
}

// FuzzSyncPage fuzzes the /v1/cluster/sync page decoder, the input a
// catching-up replica takes from its peers:
//
//   - total: any body and cursor decode or fail, never a panic;
//   - advancing: an accepted page echoes the requested cursor and moves it
//     by exactly its entry count, and claims more only when it carries
//     entries, so the pull loop can neither stall nor skip commits.
func FuzzSyncPage(f *testing.F) {
	// A peer answering this page used to be refetched until the node
	// stopped: it claims more but never advances the cursor.
	f.Add([]byte(`{"since":0,"next":0,"more":true,"entries":[]}`), uint64(0))
	f.Add([]byte(`{"replica":"1","since":3,"next":5,"more":true,"entries":[`+
		`{"stamp":9,"origin":"1","body":{"tenant":1,"cores":2,"commit":true}},`+
		`{"stamp":10,"origin":"0","body":{"tenant":2,"commit":true}}]}`), uint64(3))
	f.Add([]byte(`{"since":7,"next":7,"more":false,"entries":null}`), uint64(7))
	f.Add([]byte(`{"since":18446744073709551615,"next":0,"entries":[{}]}`), uint64(18446744073709551615))
	f.Add([]byte(`not json`), uint64(1))
	f.Fuzz(func(t *testing.T, body []byte, since uint64) {
		page, err := decodeSyncPage(strings.NewReader(string(body)), since)
		if err != nil {
			return
		}
		if page.Since != since {
			t.Fatalf("accepted a page for since=%d when asked since=%d", page.Since, since)
		}
		if page.Next-since != uint64(len(page.Entries)) {
			t.Fatalf("accepted next=%d after since=%d with %d entries", page.Next, since, len(page.Entries))
		}
		if page.More && len(page.Entries) == 0 {
			t.Fatal("accepted an empty page that claims more")
		}
	})
}

func TestDecodeSyncPage(t *testing.T) {
	for _, tc := range []struct {
		name  string
		body  string
		since uint64
		ok    bool
	}{
		{"last page", `{"since":2,"next":3,"more":false,"entries":[{"stamp":1}]}`, 2, true},
		{"more pages", `{"since":0,"next":1,"more":true,"entries":[{"stamp":1}]}`, 0, true},
		{"caught up", `{"since":4,"next":4,"more":false,"entries":[]}`, 4, true},
		{"stalled more", `{"since":0,"next":0,"more":true,"entries":[]}`, 0, false},
		{"wrong since", `{"since":1,"next":2,"entries":[{"stamp":1}]}`, 0, false},
		{"skips ahead", `{"since":0,"next":5,"entries":[{"stamp":1}]}`, 0, false},
		{"goes back", `{"since":6,"next":2,"entries":[]}`, 6, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSyncPage(strings.NewReader(tc.body), tc.since)
			if tc.ok && err != nil {
				t.Fatalf("valid page refused: %v", err)
			}
			if !tc.ok && !errors.Is(err, errSyncPage) {
				t.Fatalf("got %v, want errSyncPage", err)
			}
		})
	}
}
