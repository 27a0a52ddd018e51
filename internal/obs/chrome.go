package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event / Perfetto JSON
// format (the `traceEvents` array): complete slices (ph "X"), metadata
// (ph "M"), instants (ph "i"), and flow arrows (ph "s"/"f").
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"` // microseconds, absolute
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"` // flow binding point
	S    string         `json:"s,omitempty"`  // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level object Perfetto and chrome://tracing load.
type chromeDoc struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// batchLanePid maps a shard to the synthetic process its batch lanes
// render under (one row per model), keeping coalesced executions
// visually separate from per-item threads.
func batchLanePid(shard int) int { return 1000 + shard }

// WriteChrome exports up to n recent traces (optionally one tag) as
// Chrome trace-event JSON — the /tracez?format=chrome and amsserve
// -trace-out payload, loadable in Perfetto / chrome://tracing.
//
// Layout: pid = shard, tid = trace sequence (one thread per item), one
// "X" slice per span. Stolen items draw a flow arrow from the victim
// shard's "stolen" instant to the thief's root slice. Batched
// executions are synthesized as one slice per batch id on the shard's
// batch-lane process (tid = model), with a flow arrow converging from
// every waiter's exec span — the fan-in of N waiters into one
// execution. Works on a nil tracer (empty traceEvents array).
func (t *Tracer) WriteChrome(w io.Writer, n int, tag string) error {
	var traces []ItemTrace
	if tag != "" {
		if tr, ok := t.ByTag(tag); ok {
			traces = []ItemTrace{tr}
		}
	} else {
		traces = t.Recent(n)
	}
	doc := chromeDoc{Events: []chromeEvent{}, DisplayTimeUnit: "ms"}
	emit := func(ev chromeEvent) { doc.Events = append(doc.Events, ev) }

	seenPid := map[int]bool{}
	process := func(pid int, name string) {
		if seenPid[pid] {
			return
		}
		seenPid[pid] = true
		emit(chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}})
	}

	// Batched executions grouped by batch id, synthesized after the
	// per-item pass so one slice represents all N waiters.
	type batchRun struct {
		shard, model, n  int
		firstTS, lastEnd int64
		waiters          int
		note             string
	}
	batches := map[int64]*batchRun{}

	for _, tr := range traces {
		if len(tr.Spans) == 0 {
			continue
		}
		process(tr.Shard, fmt.Sprintf("shard-%d", tr.Shard))
		threadName := tr.Tag
		if threadName == "" {
			threadName = fmt.Sprintf("item-%d", tr.Item)
		}
		emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: tr.Shard, Tid: tr.Seq,
			Args: map[string]any{"name": threadName}})
		rootTS := tr.BeginUnixUS + tr.Spans[0].StartUS
		for _, sp := range tr.Spans {
			name := sp.Name
			if mn := t.modelName(sp.Model); mn != "" {
				name = sp.Name + " " + mn
			}
			args := map[string]any{
				"vstart_ms": sp.VStartMS,
				"vend_ms":   sp.VEndMS,
			}
			if sp.Model >= 0 {
				args["model"] = sp.Model
			}
			if sp.Note != "" {
				args["note"] = sp.Note
			}
			if sp.Batch != 0 {
				args["batch"] = sp.Batch
				args["batch_n"] = sp.BatchN
			}
			if sp.RemainingMS != 0 {
				args["remaining_ms"] = sp.RemainingMS
			}
			if sp.AvailMemMB != 0 {
				args["avail_mem_mb"] = sp.AvailMemMB
			}
			if sp.Queued != 0 {
				args["queued"] = sp.Queued
			}
			ts := tr.BeginUnixUS + sp.StartUS
			dur := sp.EndUS - sp.StartUS
			if dur < 1 {
				dur = 1
			}
			emit(chromeEvent{Name: name, Cat: "span", Ph: "X", TS: ts, Dur: dur,
				Pid: tr.Shard, Tid: tr.Seq, Args: args})
			if sp.Batch != 0 && sp.Name == SpanExec {
				br := batches[sp.Batch]
				if br == nil {
					br = &batchRun{shard: tr.Shard, model: sp.Model, n: sp.BatchN,
						firstTS: ts, lastEnd: ts + dur, note: sp.Note}
					batches[sp.Batch] = br
				}
				if ts < br.firstTS {
					br.firstTS = ts
				}
				if ts+dur > br.lastEnd {
					br.lastEnd = ts + dur
				}
				br.waiters++
				// Flow arrow: this waiter's exec span → the batch slice.
				id := fmt.Sprintf("b%d-%d", sp.Batch, tr.Seq)
				emit(chromeEvent{Name: "batch-fan-in", Cat: "batch", Ph: "s", ID: id,
					TS: ts, Pid: tr.Shard, Tid: tr.Seq})
				emit(chromeEvent{Name: "batch-fan-in", Cat: "batch", Ph: "f", BP: "e", ID: id,
					TS: ts + 1, Pid: batchLanePid(tr.Shard), Tid: int64(sp.Model)})
			}
			for _, ln := range sp.Links {
				if ln.Kind != "steal" {
					continue
				}
				// Victim shard's instant + flow arrow into the thief's
				// root slice: the cross-shard causality of a steal.
				process(ln.From, fmt.Sprintf("shard-%d", ln.From))
				id := fmt.Sprintf("steal-%d", tr.Seq)
				emit(chromeEvent{Name: "stolen", Cat: "steal", Ph: "i", S: "p",
					TS: rootTS, Pid: ln.From, Tid: tr.Seq})
				emit(chromeEvent{Name: "steal", Cat: "steal", Ph: "s", ID: id,
					TS: rootTS, Pid: ln.From, Tid: tr.Seq})
				emit(chromeEvent{Name: "steal", Cat: "steal", Ph: "f", BP: "e", ID: id,
					TS: rootTS + 1, Pid: ln.To, Tid: tr.Seq})
			}
		}
	}
	ids := make([]int64, 0, len(batches))
	for id := range batches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		br := batches[id]
		process(batchLanePid(br.shard), fmt.Sprintf("batch-lanes shard-%d", br.shard))
		name := fmt.Sprintf("batch-exec b%d ×%d", id, br.n)
		if mn := t.modelName(br.model); mn != "" {
			name = fmt.Sprintf("batch-exec %s b%d ×%d", mn, id, br.n)
		}
		dur := br.lastEnd - br.firstTS
		if dur < 1 {
			dur = 1
		}
		emit(chromeEvent{Name: name, Cat: "batch", Ph: "X", TS: br.firstTS, Dur: dur,
			Pid: batchLanePid(br.shard), Tid: int64(br.model),
			Args: map[string]any{"batch": id, "batch_n": br.n, "waiters_traced": br.waiters, "note": br.note}})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
