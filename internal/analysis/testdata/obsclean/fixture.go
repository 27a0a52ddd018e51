// This fixture impersonates a simulated-execution package holding a
// local metric registry: dynamic metric names at registration sites and
// raw time.Since spans are violations; constant names, labels, and the
// obs seam are not.
//
//amsvet:importpath ams/internal/serve
package serve

import (
	"fmt"
	"time"
)

// Registry mimics obs.Registry: the analyzer matches registration
// methods by receiver type name, so the fixture needs no obs import.
type Registry struct{}

type instrument struct{}

func (r *Registry) Counter(name, help string, labels ...string) *instrument   { return nil }
func (r *Registry) Histogram(name, help string, labels ...string) *instrument { return nil }
func (r *Registry) CounterFunc(name, help string, fn func() int64)            {}
func (r *Registry) GaugeFunc(name, help string, fn func() float64)            {}
func (r *Registry) NotRegistration(name string, labels ...string) *instrument { return nil }

const itemLatency = "ams_item_latency_seconds"

func constantNames(r *Registry) {
	r.Counter("ams_items_total", "items served")             // constant literal: fine
	r.Histogram(itemLatency, "latency")                      // named constant: fine
	r.GaugeFunc("ams_depth_"+"live", "depth", nil)           // constant expression: fine
	r.Counter("ams_model_exec_total", "execs", "model", "m") // variance in labels: the sanctioned form
}

func dynamicNames(r *Registry, shard int, tag string) {
	r.Counter(fmt.Sprintf("ams_shard_%d_total", shard), "per-shard") // want "not a compile-time constant"
	r.GaugeFunc("ams_"+tag, "per-tag", nil)                          // want "not a compile-time constant"
	name := "ams_built_total"
	r.CounterFunc(name, "built", func() int64 { return 0 }) // want "not a compile-time constant"
	r.NotRegistration(fmt.Sprintf("free_%d", shard))        // not a registration method: fine
}

func rawSpan(t0 time.Time) float64 {
	return time.Since(t0).Seconds() // want "time.Since in simulated-execution package"
}

func sanctionedSpan(t0 time.Time) float64 {
	//amsvet:allow obsclean epoch bookkeeping predating the obs seam
	return time.Since(t0).Seconds()
}

func clockRead() time.Time {
	return time.Now() // reading the clock is not a span measurement
}
