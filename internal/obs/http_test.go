package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestExporterEndToEnd(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ams_items_total", "items").Add(5)
	reg.Histogram("ams_wait_seconds", "waits").Observe(3e-6)
	tracer := NewTracer(8)
	it := tracer.Begin(0, "img-0")
	it.Annotate(it.StartSpan(SpanSelect, it.Root(time.Time{}), 2), SpanAttrs{RemainingMS: 400, AvailMemMB: 1024})
	tracer.End(it)

	exp, err := NewExporter("127.0.0.1:0", reg, tracer, func() any {
		return map[string]int{"shards": 2}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	base := "http://" + exp.Addr()

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{"# TYPE ams_items_total counter", "ams_items_total 5", "ams_wait_seconds_count 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	statusz := get("/statusz")
	for _, want := range []string{`"shards": 2`, `"ams_items_total"`} {
		if !strings.Contains(statusz, want) {
			t.Fatalf("/statusz missing %q:\n%s", want, statusz)
		}
	}
	tracez := get("/tracez")
	if !strings.Contains(tracez, `"name": "select"`) || !strings.Contains(tracez, `"avail_mem_mb": 1024`) {
		t.Fatalf("/tracez missing the select span's decision attributes:\n%s", tracez)
	}
	byTag := get("/tracez?tag=img-0")
	if !strings.Contains(byTag, `"tag": "img-0"`) {
		t.Fatalf("/tracez?tag= lookup failed:\n%s", byTag)
	}
	pprofIdx := get("/debug/pprof/")
	if !strings.Contains(pprofIdx, "goroutine") {
		t.Fatal("/debug/pprof/ index not served")
	}

	if err := exp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := exp.Close(); err != nil {
		t.Fatalf("second close must be safe: %v", err)
	}
	var nilExp *Exporter
	if err := nilExp.Close(); err != nil || nilExp.Addr() != "" {
		t.Fatal("nil exporter must no-op")
	}
}
