package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tiny is every workload at about two hundred items per repetition on a
// 40-image system: the whole harness — parity pass, warm-up, recovery,
// timed repetitions, traced run, every layer driver — in a few seconds.
func tiny(t *testing.T, wl workload, trace bool) options {
	o := options{workload: wl, seed: defaultSeed, seconds: 0, trace: trace, tmp: t.TempDir(),
		images: 40, scale: 0.01, setups: 1}
	if trace {
		o.spans = filepath.Join(o.tmp, "spans.json")
	}
	return o
}

// TestWorkloadsEmitTheDeclaredMetrics runs all four workloads, measured
// and traced, and holds what they emit to the table: every declared
// name exactly once with its unit, nothing undeclared, no failed check.
func TestWorkloadsEmitTheDeclaredMetrics(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name + "/measured"
			table := endToEnd
			if trace {
				name, table = wl.Name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				o := tiny(t, wl, trace)
				res, notes, err := run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, notes)
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var back result
				if err := json.Unmarshal(line, &back); err != nil {
					t.Fatalf("result line does not parse: %v", err)
				}
				if len(back.Metrics) != len(table) {
					t.Errorf("emitted %d metrics, the table declares %d", len(back.Metrics), len(table))
				}
				for _, m := range table {
					got, ok := back.Metrics[m.Name]
					if !ok {
						t.Errorf("%s is declared but was not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s has unit %q, the table says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace {
					checkTracedRun(t, wl, o, back)
				} else {
					for _, m := range table {
						if back.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, back.Metrics[m.Name].Value)
						}
					}
				}
			})
		}
	}
}

// checkTracedRun holds the traced run to its predictions: layers the
// workload bypasses read exactly 0, layers it uses do not, and the span
// file is a JSON array whose spans name their parents.
func checkTracedRun(t *testing.T, wl workload, o options, res result) {
	t.Helper()
	val := func(name string) float64 { return res.Metrics[name].Value }
	// Counts that can legitimately be 0 at two hundred items (steals,
	// full-queue probes, fsync batches, saved GPU time) are only held to
	// 0 where the layer is bypassed.
	positiveWhenUsed := map[string]bool{
		"batch.batches_per_item": true, "batch.mean_size": true, "batch.largest": true, "batch.enqueue_us_per_req": true,
		"shard.imbalance": true, "shard.route_us_per_item": true,
		"corpus.journal_bytes_per_item": true, "corpus.records_per_item": true, "corpus.append_us_per_item": true,
		"corpus.checkpoint_ms": true, "corpus.replay_ms": true,
	}
	for _, m := range perLayer {
		var used bool
		switch m.Layer {
		case "batch":
			used = wl.Serve.BatchSize > 0
		case "shard", "corpus":
			used = wl.Corpus != nil
		default:
			continue
		}
		if got := val(m.Name); used && positiveWhenUsed[m.Name] && got <= 0 {
			t.Errorf("%s = %v on %s, which uses the %s layer", m.Name, got, wl.Name, m.Layer)
		} else if !used && got != 0 {
			t.Errorf("%s = %v on %s; predicted exactly 0", m.Name, got, wl.Name)
		}
	}
	if got := val("corpus.replay_reruns"); got != 0 {
		t.Errorf("corpus.replay_reruns = %v", got)
	}
	for _, name := range []string{"zoo.inferences_per_item", "obs.series"} {
		if got := val(name); (wl.Corpus != nil) != (got > 0) {
			t.Errorf("%s = %v on %s", name, got, wl.Name)
		}
	}
	if got := val("serve.mem_waits_per_item"); wl.Exact && got != 0 {
		t.Errorf("serve.mem_waits_per_item = %v on the serial floor; predicted 0", got)
	}
	if got := val("sim.recall_delta"); got != 0 {
		t.Errorf("sim.recall_delta = %v", got)
	}
	for _, name := range []string{"sched.next_us_per_call", "nn.forward_us_per_call", "oracle.tracker_us_per_item",
		"serve.dispatch_us_per_item", "vtime.timer_us_per_call", "load.trace_overhead_ratio"} {
		if val(name) <= 0 {
			t.Errorf("%s = %v; every workload drives this layer", name, val(name))
		}
	}

	raw, err := os.ReadFile(o.spans)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Item   int    `json:"item"`
	}
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("span file does not parse: %v", err)
	}
	names := make(map[string]int)
	for i, s := range spans {
		names[s.Name]++
		if s.Parent >= i {
			t.Fatalf("span %d (%s) names parent %d, which was opened after it", i, s.Name, s.Parent)
		}
		if s.Parent >= 0 {
			if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %d (%s) does not nest inside its parent %s", i, s.Name, p.Name)
			}
		}
	}
	for _, want := range []string{"item", "load.submit", "load.await", "rep", "serve.new", "serve.close", "serve.stats",
		"sched.next", "nn.forward", "oracle.tracker", "serve.dispatch", "vtime.sleep"} {
		if names[want] == 0 {
			t.Errorf("span file has no %q span", want)
		}
	}
	if names["item"] != names["load.submit"] || names["item"] != names["load.await"] {
		t.Errorf("%d item spans with %d load.submit and %d load.await children",
			names["item"], names["load.submit"], names["load.await"])
	}
}

// TestManifestIsGeneratedFromTheTable keeps BENCHMARK.json and the table
// one thing, and the table inside the contract's limits.
func TestManifestIsGeneratedFromTheTable(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the table; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, wl := range workloads {
		name(wl.Name)
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("%s: why is %d characters; one line of at most 200", wl.Name, len(wl.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != higher && m.Better != lower {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Layer == "" || !strings.HasPrefix(m.Name, m.Layer+".") || m.Moves == "" {
			t.Errorf("%s: layer %q, moves %q", m.Name, m.Layer, m.Moves)
		}
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(got))
	}
}

// TestCompareVerdicts checks the three verdicts of the two-set rule.
func TestCompareVerdicts(t *testing.T) {
	m := metric{Name: "items_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(vals []float64, k float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 80, 100, 150, 60, 110, 90}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, verdictOK},
		{"within the bound", steady, scale(steady, 0.95), verdictOK},
		{"worse than the bound", steady, scale(steady, 0.85), verdictRegressed},
		{"better", steady, scale(steady, 1.5), verdictOK},
		{"spread wider than the bound", noisy, scale(noisy, 0.98), verdictUnresolved},
		{"wide spread but every run better", noisy, scale(noisy, 3), verdictOK},
	} {
		if _, got := judge(m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	lowerBetter := metric{Name: "cpu_ms_per_item", Better: lower, Bound: 0.10}
	if _, got := judge(lowerBetter, steady, scale(steady, 1.2)); got != verdictRegressed {
		t.Errorf("a lower-is-better metric that rose 20 %% reads %s", got)
	}

	dir := t.TempDir()
	write := func(file string, ips float64) string {
		path := filepath.Join(dir, file)
		for seed := uint64(0); seed < 4; seed++ {
			rec := record{Workload: "floor_serial", Seed: seed, result: result{Correct: true, Attempted: 1,
				Metrics: map[string]value{"items_per_s": {Value: ips + float64(seed), Unit: "items/s"}}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1000), write("b.jsonl", 500)
	var out bytes.Buffer
	regressed, err := compareFiles(&out, a, b)
	if err != nil || !regressed || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("halved throughput: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if regressed, err := compareFiles(&out, a, a); err != nil || regressed {
		t.Errorf("a set against itself: regressed=%v err=%v", regressed, err)
	}
}

// TestQuartileSpreadMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the contract measures with.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// quantiles([10, 20], n=4) = [7.5, 15, 22.5].
	if got, want := quartileSpread([]float64{10, 20}), 1.0; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

// TestSelfTimeSubtractsTheUnionOfChildren covers the span arithmetic:
// overlapping children count once, and a child that escapes its parent
// is an error.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1, Item: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0, Item: -1},
		{Name: "child", Start: 30, End: 60, Parent: 0, Item: -1},
		{Name: "child", Start: 80, End: 90, Parent: 0, Item: -1},
	}
	tot, err := tr.totals()
	if err != nil {
		t.Fatal(err)
	}
	if got := tot["parent"].SelfNS; got != 100-50-10 {
		t.Errorf("parent self time %d, want 40", got)
	}
	if got := tot["child"]; got.Count != 3 || got.SelfNS != 70 {
		t.Errorf("child totals %+v", got)
	}
	tr.spans = append(tr.spans, span{Name: "stray", Start: 90, End: 120, Parent: 0, Item: -1})
	if _, err := tr.totals(); err == nil {
		t.Error("a child ending after its parent was accepted")
	}
}
