package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// A Label is one metric dimension (model name, shard index, segment).
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label at a registration site.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric kinds, as exposed in Prometheus TYPE lines and snapshots.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance of a metric family: exactly one of the
// instruments (c, h) or view funcs (cf, gf) is set.
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
	cf     func() int64
	gf     func() float64
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   string
	series []*series
	byKey  map[string]*series
}

// Registry is a named-metric registry. Registration is idempotent on
// (name, labels): re-registering returns the existing instrument, so
// shards sharing a registry share fleet-wide histograms while per-shard
// series stay distinct through a "shard" label. All methods are safe
// for concurrent use, and every method no-ops on a nil Registry —
// returning nil instruments — so a disabled server threads nil all the
// way down and pays only the instruments' own nil checks.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// labelKey canonicalizes a label set (sorted by key) for idempotence.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// lookup finds or creates the family and series slot for one
// registration. It panics on a kind conflict: registration happens once
// at server construction, so a clash is a programming error, not a
// runtime condition.
func (r *Registry) lookup(name, help, kind string, labels []Label) (*series, bool) {
	fam := r.byName[name]
	if fam == nil {
		fam = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind, kind))
	}
	key := labelKey(labels)
	if s := fam.byKey[key]; s != nil {
		return s, true
	}
	s := &series{labels: append([]Label(nil), labels...)}
	fam.byKey[key] = s
	fam.series = append(fam.series, s)
	return s, false
}

// Counter registers (or returns the existing) counter under name with
// the given labels. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, existed := r.lookup(name, help, kindCounter, labels)
	if !existed || s.c == nil {
		s.c = NewCounter()
		s.cf = nil
	}
	return s.c
}

// Histogram registers (or returns the existing) histogram. Nil on nil
// registry.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, existed := r.lookup(name, help, kindHistogram, labels)
	if !existed || s.h == nil {
		s.h = NewHistogram()
	}
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the "view" form: existing server state (completed counts,
// accountant waits, batch stats) is exposed without double bookkeeping,
// so ServeStats and /metrics read the same source of truth. fn must be
// safe for concurrent calls. No-op on a nil registry.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.lookup(name, help, kindCounter, labels)
	s.cf = fn
	s.c = nil
}

// GaugeFunc registers a gauge read from fn at scrape time (see
// CounterFunc). No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.lookup(name, help, kindGauge, labels)
	s.gf = fn
}

// Metric is one series' point-in-time state, JSON-ready for /statusz
// and the root package's ServeStats.Telemetry snapshot.
type Metric struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	Count  int64             `json:"count,omitempty"`
	Sum    float64           `json:"sum,omitempty"`
	P50    float64           `json:"p50,omitempty"`
	P95    float64           `json:"p95,omitempty"`
	P99    float64           `json:"p99,omitempty"`
}

// Snapshot captures every series. Families appear sorted by name,
// series in registration order. Nil registries return nil.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	var out []Metric
	for _, fam := range r.sortedFamilies() {
		for _, s := range fam.series {
			m := Metric{Name: fam.name, Kind: fam.kind}
			if len(s.labels) > 0 {
				m.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					m.Labels[l.Key] = l.Value
				}
			}
			switch {
			case s.h != nil:
				snap := s.h.Snapshot()
				m.Count, m.Sum = snap.Count, snap.Sum
				m.P50, m.P95, m.P99 = snap.P50, snap.P95, snap.P99
				m.Value = snap.Mean()
			case s.c != nil:
				m.Value = float64(s.c.Value())
			case s.cf != nil:
				m.Value = float64(s.cf())
			case s.gf != nil:
				m.Value = s.gf()
			}
			out = append(out, m)
		}
	}
	return out
}

// sortedFamilies snapshots the family list under the lock and returns
// it sorted by name, so exposition order is deterministic regardless of
// registration order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// WritePrometheus writes the registry in Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, cumulative le-labeled
// histogram buckets, _sum and _count series. No-op on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	for _, fam := range r.sortedFamilies() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			fam.name, escapeHelp(fam.help), fam.name, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.series {
			if err := writeSeries(w, fam, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, fam *family, s *series) error {
	switch {
	case s.h != nil:
		snap := s.h.Snapshot()
		var cum int64
		for i := 0; i < histBuckets; i++ {
			cum += snap.Buckets[i]
			le := formatBound(bucketBound(i))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				fam.name, renderLabels(s.labels, Label{"le", le}), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
			fam.name, renderLabels(s.labels), formatValue(snap.Sum),
			fam.name, renderLabels(s.labels), snap.Count); err != nil {
			return err
		}
		return nil
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, renderLabels(s.labels), s.c.Value())
		return err
	case s.cf != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", fam.name, renderLabels(s.labels), s.cf())
		return err
	case s.gf != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, renderLabels(s.labels), formatValue(s.gf()))
		return err
	}
	return nil
}

// renderLabels formats {k="v",...} with Prometheus escaping, or ""
// when there are no labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return formatValue(v)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
