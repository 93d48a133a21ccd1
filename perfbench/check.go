package main

import (
	"fmt"

	"pfcache/internal/core"
	"pfcache/internal/service"
	"pfcache/internal/sim"
)

// checkSchedule re-runs a served schedule through the executor and checks
// that the response's own account of it is true: the schedule is feasible
// on the instance, and its stall, elapsed time, fetch count and extra cache
// are the ones the response reports.  An lp-optimal schedule must also keep
// Theorem 4's extra-cache bound of 2(D-1) locations.
func checkSchedule(in *core.Instance, strategy string, resp *service.ScheduleResponse) error {
	if resp.N != in.N() || resp.Disks != in.Disks || resp.Strategy != strategy {
		return fmt.Errorf("response describes n=%d D=%d %q, want n=%d D=%d %q",
			resp.N, resp.Disks, resp.Strategy, in.N(), in.Disks, strategy)
	}
	sched := &core.Schedule{Fetches: make([]core.Fetch, 0, len(resp.Schedule))}
	for _, f := range resp.Schedule {
		sched.Append(core.Fetch{Disk: f.Disk, After: f.After, MinTime: f.MinTime,
			Block: core.BlockID(f.Block), Evict: core.BlockID(f.Evict), EvictAtEnd: core.BlockID(f.EvictAtEnd)})
	}
	res, err := sim.Run(in, sched, sim.Options{})
	if err != nil {
		return fmt.Errorf("served %s schedule is infeasible: %w", strategy, err)
	}
	if res.Stall != resp.Stall || res.Elapsed != resp.Elapsed ||
		res.FetchCount != resp.FetchCount || res.ExtraCache != resp.ExtraCache {
		return fmt.Errorf("served %s schedule executes to stall %d, elapsed %d, %d fetches, extra cache %d; response says %d, %d, %d, %d",
			strategy, res.Stall, res.Elapsed, res.FetchCount, res.ExtraCache,
			resp.Stall, resp.Elapsed, resp.FetchCount, resp.ExtraCache)
	}
	if strategy == "lp-optimal" && res.ExtraCache > 2*(in.Disks-1) {
		return fmt.Errorf("lp-optimal schedule uses %d extra cache locations, Theorem 4 allows %d",
			res.ExtraCache, 2*(in.Disks-1))
	}
	return nil
}
