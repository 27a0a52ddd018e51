// Command bench is the repository's benchmark: it drives the public
// ams.Server with one of four serving workloads from a single
// closed-loop load generator, checks every output, and reports the
// end-to-end metrics (-trace 0) or, from a separate traced run, the
// per-layer metrics (-trace 1). See README.md in this directory.
//
//	bash bench/run.sh -workload floor_serial -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare before.jsonl after.jsonl
//
// The last line of standard output is the result as one JSON object;
// the exit code is non-zero when any check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of an -out file: the result with what produced it,
// so -compare can group runs by workload.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: floor_serial, floor_parallel, hot_batched or ingest_durable")
		seed     = flag.Uint64("seed", defaultSeed, "workload seed: item order and generated scenes")
		seconds  = flag.Float64("seconds", runSeconds, "how long the timed repetitions run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "append the result as one JSON line to this file (the input of -compare)")
		spans    = flag.String("spans", "", "traced run: write the span file here (default <tmp>/<workload>.spans.json)")
		tmp      = flag.String("tmp", filepath.Join(".bench_build", "run"), "scratch directory for corpus journals and the span file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit non-zero on a regression")
		describe = flag.Bool("describe", false, "print the workload and metric tables as Markdown")
		emit     = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the table")
	)
	flag.Parse()
	switch {
	case *emit:
		doc, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	case *describe:
		printTables(os.Stdout)
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two -out files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fatal(err)
	}
	o := options{workload: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, tmp: *tmp, spans: *spans,
		images: systemImages, scale: 1, setups: 3}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(*tmp, wl.Name+".spans.json")
	}
	res, notes, err := run(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	report(os.Stdout, o, res, notes)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: wl.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, result: *res}); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// phase runs repetitions of the timed size until the budget is spent,
// at least atLeast of them.
func (r *runner) phase(ctx context.Context, firstRep int, budget time.Duration, atLeast int, tr *tracer, recovery bool) ([]*repResult, error) {
	var reps []*repResult
	start := time.Now()
	for len(reps) < atLeast || time.Since(start) < budget {
		rep, err := r.repetition(ctx, firstRep+len(reps), r.items, tr, recovery)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// medians reduces the repetitions to one value per metric name.
func medians(reps []*repResult) map[string]float64 {
	byName := make(map[string][]float64)
	for _, rep := range reps {
		for name, v := range rep.vals {
			byName[name] = append(byName[name], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for name, vals := range byName {
		out[name] = median(vals)
	}
	return out
}

// pooledLatency takes the percentiles over every repetition's samples.
func pooledLatency(reps []*repResult, v map[string]float64) {
	var all []float64
	for _, rep := range reps {
		all = append(all, rep.latencyMS...)
	}
	sort.Float64s(all)
	v["latency_p50_ms"] = percentile(all, 50)
	v["load.latency_p99_ms"] = percentile(all, 99)
	v["load.latency_max_ms"] = all[len(all)-1]
	v["load.latency_samples"] = float64(len(all))
}

// run performs one benchmark run and returns its result with notes for
// the printed report.
func run(ctx context.Context, o options) (*result, []string, error) {
	r := &runner{o: o}
	var notes []string

	// Set-up runs several times and reports its median: a single set-up
	// is a few seconds of CPU-bound work and one stall would read as a
	// regression. The traced run reports no setup_s and sets up once.
	setups := o.setups
	if o.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := r.setUp(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var v map[string]float64
	table := endToEnd

	if !o.trace {
		reps, err := r.phase(ctx, 0, budget, 3, nil, false)
		if err != nil {
			return nil, nil, err
		}
		v = medians(reps)
		pooledLatency(reps, v)
		v["setup_s"] = median(setupS)
		notes = append(notes, fmt.Sprintf("%d timed repetitions of %d items, window %d; set-up ran %d times",
			len(reps), r.items, o.workload.Window, setups))
		var ips []string
		for _, rep := range reps {
			ips = append(ips, fmt.Sprintf("%.0f", rep.vals["items_per_s"]))
		}
		notes = append(notes, "items_per_s by repetition: "+strings.Join(ips, " "))
	} else {
		table = perLayer
		// Tracing off first: the layer metrics that are the server's own
		// counters, and the throughput the traced repetitions are held
		// against. Then the traced repetitions, then the layer drivers.
		plain, err := r.phase(ctx, 0, budget*2/5, 2, nil, false)
		if err != nil {
			return nil, nil, err
		}
		tr := newTracer()
		traced, err := r.phase(ctx, len(plain), budget*2/5, 2, tr, true)
		if err != nil {
			return nil, nil, err
		}
		d, err := newDrivers(r, tr, plain[len(plain)-1].served)
		if err != nil {
			return nil, nil, err
		}
		if err := d.run(ctx); err != nil {
			return nil, nil, err
		}
		tot, err := tr.totals()
		if err != nil {
			r.fails.add("span file: %v", err)
		} else {
			d.metrics(tot)
		}
		if o.spans != "" {
			if err := tr.write(o.spans); err != nil {
				return nil, nil, err
			}
			notes = append(notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), o.spans))
		}
		v = medians(plain)
		pooledLatency(plain, v)
		tv := medians(traced)
		for _, name := range []string{"corpus.checkpoint_ms", "corpus.replay_ms", "corpus.replay_reruns"} {
			v[name] = tv[name]
		}
		for name, val := range d.v {
			v[name] = val
		}
		var ips []float64
		for _, rep := range plain {
			ips = append(ips, rep.vals["items_per_s"])
		}
		v["load.reps_spread"] = (slices.Max(ips) - slices.Min(ips)) / median(ips)
		v["load.trace_overhead_ratio"] = tv["items_per_s"] / v["items_per_s"]
		notes = append(notes, fmt.Sprintf("%d untraced and %d traced repetitions of %d items, window %d",
			len(plain), len(traced), r.items, o.workload.Window))
		if t := tot["sched.next"]; t.Count > 0 {
			ledger := float64(t.SelfNS) / float64(len(d.scheds)*replayRounds) / 1e3
			notes = append(notes, fmt.Sprintf("ledger: sched.next self time %.1f us/item replayed; the server's own counter (sched.select_us_per_item) reads %.1f us/item",
				ledger, v["sched.select_us_per_item"]))
		}
	}

	res := &result{Correct: r.fails.n == 0, Attempted: r.attempted, Failed: r.fails.n, Metrics: make(map[string]value)}
	for _, m := range table {
		res.Metrics[m.Name] = value{Value: v[m.Name], Unit: m.Unit}
	}
	for _, msg := range r.fails.first {
		notes = append(notes, "FAILED: "+msg)
	}
	return res, notes, nil
}

// report prints every metric by name with its unit, in table order.
func report(w io.Writer, o options, res *result, notes []string) {
	mode, table := "end-to-end, tracing off", endToEnd
	if o.trace {
		mode, table = "traced run, per layer", perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s\n", o.workload.Name, o.seed, mode)
	for _, m := range table {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
}

// appendRecord adds one JSON line to an -out file.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
