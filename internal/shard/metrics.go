package shard

import (
	"strconv"

	"ams/internal/batch"
	"ams/internal/obs"
)

// RegisterViews exposes the router's live routing state on reg as
// per-shard labeled series, and the fleet-wide shed, failure and
// batch-flush totals — views over the very counters Stats reads (no
// double bookkeeping), evaluated at scrape time. A shard's queue depth
// is its server's ams_queue_depth; what was admitted is the sum of
// ams_shard_assigned_total. No-op on a nil registry.
func (r *Router) RegisterViews(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for s := range r.servers {
		label := obs.L("shard", strconv.Itoa(s))
		reg.CounterFunc("ams_shard_assigned_total",
			"Items placed on this shard as their home",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].Assigned }, label)
		reg.CounterFunc("ams_shard_steals_total",
			"Items this shard stole from a loaded sibling",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].Steals }, label)
		reg.CounterFunc("ams_shard_stolen_from_total",
			"Items stolen away from this shard",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].StolenFrom }, label)
		reg.GaugeFunc("ams_shard_inflight",
			"Items this shard's workers have taken, not yet finished",
			func() float64 { return float64(r.servers[s].Live().Running) }, label)
	}
	reg.CounterFunc("ams_items_shed_total",
		"Items rejected at admission (queue full)", r.ShedTotal)
	reg.CounterFunc("ams_shard_failures_total",
		"Tickets whose resolution failed on the shard that took them",
		func() int64 {
			var n int64
			for _, sv := range r.servers {
				n += sv.Counters().Failed
			}
			return n
		})
	batch.RegisterViews(reg, func() batch.Stats {
		var st batch.Stats
		for _, sv := range r.servers {
			st.Add(sv.Counters().Batching)
		}
		return st
	})
}
