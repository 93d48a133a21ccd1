package opt

import "sync/atomic"

// Process-wide search counters, mirroring internal/lp's StatsSnapshot: every
// Optimal call accumulates its work here, so a whole experiment run can
// report how much exhaustive-search effort it spent (pcbench embeds the
// snapshot in its -json output for BENCH_*.json trajectory tracking).  The
// sums are order-independent, so they are byte-reproducible under the
// concurrent experiment driver.

// Counters aggregates search work across every Optimal call in the process.
type Counters struct {
	// Searches counts completed Optimal calls (including failed ones).
	Searches uint64
	// Expanded counts states popped from the queue and expanded.
	Expanded uint64
	// Generated counts states produced for relaxation (each search's root
	// plus every successor produced by an expansion).
	Generated uint64
	// PrunedByBound counts successors discarded because g + h reached the
	// branch-and-bound incumbent.
	PrunedByBound uint64
	// DuplicateHits counts successors that were already present in the node
	// table under the same raw key.
	DuplicateHits uint64
	// PeakTable is the largest node-table size seen in any single search.
	PeakTable uint64
}

var (
	statSearches  atomic.Uint64
	statExpanded  atomic.Uint64
	statGenerated atomic.Uint64
	statPruned    atomic.Uint64
	statDup       atomic.Uint64
	statPeak      atomic.Uint64
)

// StatsSnapshot returns the current process-wide counters.
func StatsSnapshot() Counters {
	return Counters{
		Searches:      statSearches.Load(),
		Expanded:      statExpanded.Load(),
		Generated:     statGenerated.Load(),
		PrunedByBound: statPruned.Load(),
		DuplicateHits: statDup.Load(),
		PeakTable:     statPeak.Load(),
	}
}

// StatsReset zeroes the process-wide counters.
func StatsReset() {
	statSearches.Store(0)
	statExpanded.Store(0)
	statGenerated.Store(0)
	statPruned.Store(0)
	statDup.Store(0)
	statPeak.Store(0)
}

// casMax raises c to v if v is larger (a running maximum).
func casMax(c *atomic.Uint64, v uint64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// recordStats folds one search's counters into the process-wide totals.
func (s *searcher) recordStats() {
	statSearches.Add(1)
	statExpanded.Add(uint64(s.expanded))
	statGenerated.Add(uint64(s.generated))
	statPruned.Add(uint64(s.pruned))
	statDup.Add(uint64(s.dupHits))
	casMax(&statPeak, uint64(s.table.count))
}
