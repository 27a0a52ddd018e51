package shard

import (
	"strconv"

	"ams/internal/obs"
)

// RegisterViews exposes the router's live routing state on reg as
// per-shard labeled series — views over the very counters Stats reads
// (no double bookkeeping), evaluated under r.mu at scrape time. No-op
// on a nil registry.
func (r *Router) RegisterViews(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for s := range r.servers {
		label := obs.L("shard", strconv.Itoa(s))
		s := s
		reg.CounterFunc("ams_shard_assigned_total",
			"Items placed on this shard as their home",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].Assigned }, label)
		reg.CounterFunc("ams_shard_steals_total",
			"Items this shard stole from a loaded sibling",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].Steals }, label)
		reg.CounterFunc("ams_shard_stolen_from_total",
			"Items stolen away from this shard",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].StolenFrom }, label)
		reg.CounterFunc("ams_shard_rejected_total",
			"Placements refused with a full pending queue",
			func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.per[s].Rejected }, label)
		reg.GaugeFunc("ams_shard_pending",
			"Items placed on this shard, not yet dispatched",
			func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return float64(len(r.queues[s])) }, label)
		reg.GaugeFunc("ams_shard_inflight",
			"Items dispatched to this shard's server, not yet completed",
			func() float64 { r.mu.Lock(); defer r.mu.Unlock(); return float64(r.inflight[s]) }, label)
	}
	reg.CounterFunc("ams_shard_failures_total",
		"Tickets that failed at resolution or dispatch",
		func() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.failures })
}
