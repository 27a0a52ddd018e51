package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Times are
// nanoseconds since the tracer started; Parent is the index of the span
// that caused it (-1 for a root) and Item the workload item it belongs
// to (-1 for none).
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Item   int
}

// tracer keeps the spans of one traced run in memory; they are written
// out once, when the benchmark ends. A nil tracer records nothing and
// reads no clock, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent, item int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Item: item})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// follow records a span that starts where span prev ended (now, when
// prev is still open) and ends now: the wait between a call returning
// and its effect being seen by another goroutine.
func (t *tracer) follow(name string, prev, parent, item int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	start := now
	if prev >= 0 && t.spans[prev].End >= 0 && t.spans[prev].End < now {
		start = t.spans[prev].End
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: now, Parent: parent, Item: item})
	t.mu.Unlock()
}

// spanTotals aggregates one span name.
type spanTotals struct {
	Count  int
	DurNS  int64 // summed durations
	SelfNS int64 // summed durations minus the part child spans cover
}

// totals checks that every span is closed and nests inside its parent,
// and returns per-name totals. A layer's self time is its span's
// duration minus the part of that interval its children cover (children
// of one parent may overlap when two goroutines drive a layer, so their
// union is taken).
func (t *tracer) totals() (map[string]spanTotals, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) was never closed", i, s.Name)
		}
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, fmt.Errorf("span %d (%s) [%d,%d] escapes its parent %s [%d,%d]",
					i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]spanTotals)
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		var covered, edge int64
		edge = s.Start
		for _, k := range kids {
			c := t.spans[k]
			if c.End <= edge {
				continue
			}
			if c.Start > edge {
				edge = c.Start
			}
			covered += c.End - edge
			edge = c.End
		}
		tot := out[s.Name]
		tot.Count++
		tot.DurNS += s.End - s.Start
		tot.SelfNS += s.End - s.Start - covered
		out[s.Name] = tot
	}
	return out, nil
}

// write stores the spans as one JSON array of
// {name, start_ns, end_ns, parent, item}.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 128)
	w.WriteString("[")
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"name\":"...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, ",\"item\":"...)
		buf = strconv.AppendInt(buf, int64(s.Item), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
