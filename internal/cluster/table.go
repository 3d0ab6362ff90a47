// Package cluster partitions contract groups across multiple miner
// processes and routes clients to them without a proxy hop. A routing table
// assigns every serving group a leader node (the only node ingesting for the
// group) and optional read replicas (followers serving extra classify
// capacity); nodes host the shards their table rows name, leaders replicate
// each successful refit's swapped classifier to their followers over the
// model-sync frame, and clients discover the table from any node and
// dispatch each request to the right process themselves. Assignment is
// either static (operator-pinned) or rendezvous-hashed, so growing or
// shrinking the node set only remaps the groups the changed node carried.
//
// The durability gossip keeps a running cluster convergent through
// restarts, partitions and leader loss: reconnect handshakes floor a
// restarted leader's sequence counter, anti-entropy re-pushes catch
// lagging replicas up, and epoch-versioned table rows let the next-ranked
// replica assume leadership when a leader stays silent past its grace
// (see Node). Package faultnet provides the fault-injection harness the
// durability tests drive these paths with.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/protocol"
)

// Errors of the cluster layer.
var (
	// ErrBadTable flags an invalid routing-table construction.
	ErrBadTable = errors.New("cluster: bad routing table")
	// ErrBadNode flags an invalid node configuration.
	ErrBadNode = errors.New("cluster: bad node configuration")
	// ErrNoGroups means a node's table rows assign it nothing to host.
	ErrNoGroups = errors.New("cluster: node hosts no groups")
	// ErrNoRoute means the routing table has no row for the addressed group,
	// even after a refresh.
	ErrNoRoute = errors.New("cluster: no route for group")
	// ErrNoNodes means every candidate node for a request was unreachable.
	ErrNoNodes = errors.New("cluster: no reachable node for group")
)

// Table is an immutable routing table: one RouteEntry per group, mapping it
// to its leader node and read replicas. Construct with NewStaticTable or
// NewRendezvousTable; safe for concurrent use. Epochs version each row
// individually (protocol.RouteEntry.Epoch): failover re-announces a
// promoted row under the old row's epoch + 1, and clients and nodes merge
// tables row-wise, keeping the highest-epoch row seen per group — so
// concurrent failovers of different groups compose instead of overwriting
// each other. Operator tables usually leave every row at epoch 0.
type Table struct {
	entries []protocol.RouteEntry
	byGroup map[string]protocol.RouteEntry
	epoch   uint64 // highest row epoch, derived at construction
}

// NewStaticTable pins an operator-chosen assignment: entries are validated
// (non-empty unique groups, non-empty node names, no node both leading and
// replicating the same group) and served verbatim. Use it when group
// placement is dictated by data locality or contract terms; rendezvous
// hashing (NewRendezvousTable) is the self-balancing alternative.
func NewStaticTable(entries []protocol.RouteEntry) (*Table, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("%w: empty table", ErrBadTable)
	}
	t := &Table{byGroup: make(map[string]protocol.RouteEntry, len(entries))}
	for i, e := range entries {
		if e.Group == "" {
			return nil, fmt.Errorf("%w: entry %d has an empty group", ErrBadTable, i)
		}
		if e.Node == "" {
			return nil, fmt.Errorf("%w: group %q has an empty leader", ErrBadTable, e.Group)
		}
		if _, dup := t.byGroup[e.Group]; dup {
			return nil, fmt.Errorf("%w: duplicate group %q", ErrBadTable, e.Group)
		}
		seen := map[string]struct{}{e.Node: {}}
		for _, r := range e.Replicas {
			if r == "" {
				return nil, fmt.Errorf("%w: group %q has an empty replica", ErrBadTable, e.Group)
			}
			if _, dup := seen[r]; dup {
				return nil, fmt.Errorf("%w: group %q lists node %q twice", ErrBadTable, e.Group, r)
			}
			seen[r] = struct{}{}
		}
		copied := protocol.RouteEntry{
			Group: e.Group, Node: e.Node, Epoch: e.Epoch,
			Replicas: append([]string(nil), e.Replicas...)}
		t.entries = append(t.entries, copied)
		t.byGroup[e.Group] = copied
		if e.Epoch > t.epoch {
			t.epoch = e.Epoch
		}
	}
	return t, nil
}

// NewRendezvousTable assigns groups to nodes by rendezvous (highest random
// weight) hashing: each group ranks every node by a hash of the (node,
// group) pair, its leader is the top-ranked node and its replicas the next
// `replicas` ranks. The assignment is deterministic in the node and group
// names alone — every process derives the identical table — and minimally
// disruptive: removing a node only remaps the groups that ranked it, and
// adding one only claims the groups that now rank it, everything else stays
// put (no modulo reshuffle).
func NewRendezvousTable(groups, nodes []string, replicas int) (*Table, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrBadTable)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadTable)
	}
	if replicas < 0 || replicas >= len(nodes) {
		return nil, fmt.Errorf("%w: %d replicas with %d nodes (need 0 <= replicas < nodes)",
			ErrBadTable, replicas, len(nodes))
	}
	seenNode := make(map[string]struct{}, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("%w: empty node name", ErrBadTable)
		}
		if _, dup := seenNode[n]; dup {
			return nil, fmt.Errorf("%w: duplicate node %q", ErrBadTable, n)
		}
		seenNode[n] = struct{}{}
	}
	entries := make([]protocol.RouteEntry, 0, len(groups))
	seenGroup := make(map[string]struct{}, len(groups))
	for _, g := range groups {
		if g == "" {
			return nil, fmt.Errorf("%w: empty group name", ErrBadTable)
		}
		if _, dup := seenGroup[g]; dup {
			return nil, fmt.Errorf("%w: duplicate group %q", ErrBadTable, g)
		}
		seenGroup[g] = struct{}{}
		ranked := rankNodes(g, nodes)
		entry := protocol.RouteEntry{Group: g, Node: ranked[0]}
		if replicas > 0 {
			entry.Replicas = append([]string(nil), ranked[1:1+replicas]...)
		}
		entries = append(entries, entry)
	}
	return NewStaticTable(entries)
}

// rankNodes orders nodes by descending rendezvous score for the group,
// breaking score ties by ascending name so the ranking is total and
// identical everywhere.
func rankNodes(group string, nodes []string) []string {
	ranked := append([]string(nil), nodes...)
	scores := make(map[string]uint64, len(nodes))
	for _, n := range ranked {
		scores[n] = hrwScore(n, group)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := scores[ranked[i]], scores[ranked[j]]
		if si != sj {
			return si > sj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// hrwScore is the rendezvous weight of one (node, group) pair: FNV-1a over
// the two names with a separator byte ("ab"+"c" and "a"+"bc" hash
// differently), pushed through a finalizer because raw FNV has weak
// avalanche — the last-written bytes barely reach the high bits, and rank
// comparisons are dominated by high bits, so without mixing one node would
// outrank the rest for nearly every group.
func hrwScore(node, group string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(group))
	return mix64(h.Sum64())
}

// mix64 is a 64-bit avalanche finalizer (the MurmurHash3 fmix64 constants):
// every input bit flips each output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Route returns the table row for one group.
func (t *Table) Route(group string) (protocol.RouteEntry, bool) {
	e, ok := t.byGroup[group]
	return e, ok
}

// Epoch returns the highest row epoch in the table (0 for operator tables
// that never saw a failover).
func (t *Table) Epoch() uint64 { return t.epoch }

// stampRowEpochs applies a routes answer's table-level epoch to rows that
// carry no per-row epochs: static tables and RoutesFunc servers may version
// the whole table at once, and a uniform stamp preserves that meaning. An
// answer in which any row already carries its own epoch is returned
// unchanged — its rows speak for themselves, and lifting the zero-epoch
// rows to the table's maximum would resurrect exactly the stale-row
// poisoning per-row epochs exist to prevent.
func stampRowEpochs(entries []protocol.RouteEntry, epoch uint64) []protocol.RouteEntry {
	if epoch == 0 {
		return entries
	}
	for _, e := range entries {
		if e.Epoch != 0 {
			return entries
		}
	}
	out := make([]protocol.RouteEntry, len(entries))
	for i, e := range entries {
		e.Epoch = epoch
		out[i] = e
	}
	return out
}

// sameAssignment reports whether two rows for the same group name the same
// leader and the same replica ranking (epochs aside).
func sameAssignment(a, b protocol.RouteEntry) bool {
	if a.Node != b.Node || len(a.Replicas) != len(b.Replicas) {
		return false
	}
	for i := range a.Replicas {
		if a.Replicas[i] != b.Replicas[i] {
			return false
		}
	}
	return true
}

// rowOutranks is the deterministic tie-break for equal-epoch row conflicts:
// when two failovers of the same group race to the same epoch (a healed
// partition where two replicas each promoted themselves), every node and
// client must converge on the same winner without another round of
// versioning. The rule is arbitrary but total — lexicographically smaller
// leader first, then the lexicographically smaller replica ranking — so one
// side of the race always yields.
func rowOutranks(a, b protocol.RouteEntry) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	for i := 0; i < len(a.Replicas) && i < len(b.Replicas); i++ {
		if a.Replicas[i] != b.Replicas[i] {
			return a.Replicas[i] < b.Replicas[i]
		}
	}
	return len(a.Replicas) < len(b.Replicas)
}

// Entries returns the table rows in construction order. The slice is shared;
// callers must not mutate it.
func (t *Table) Entries() []protocol.RouteEntry { return t.entries }

// Groups returns the routed group IDs in construction order.
func (t *Table) Groups() []string {
	ids := make([]string, len(t.entries))
	for i, e := range t.entries {
		ids[i] = e.Group
	}
	return ids
}

// Nodes returns every node named by the table (leaders and replicas),
// sorted, each once.
func (t *Table) Nodes() []string {
	seen := make(map[string]struct{})
	for _, e := range t.entries {
		seen[e.Node] = struct{}{}
		for _, r := range e.Replicas {
			seen[r] = struct{}{}
		}
	}
	nodes := make([]string, 0, len(seen))
	for n := range seen {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}
