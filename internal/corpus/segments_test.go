package corpus

import "testing"

// TestParseManifest: only the body writeManifest writes, of a positive
// count, opens; a damaged count line is refused rather than read as some
// other segment count.
func TestParseManifest(t *testing.T) {
	for _, tc := range []struct {
		name, data string
		want       int // 0: refused
	}{
		{"one", manifestBody(1), 1},
		{"three", manifestBody(3), 3},
		{"wide", manifestBody(4096), 4096},
		{"trailing letters", manifestHeader + "\nsegments 3xyz\n", 0},
		{"second number", manifestHeader + "\nsegments 3 4\n", 0},
		{"digit separator", manifestHeader + "\nsegments 1_0\n", 0},
		{"plus sign", manifestHeader + "\nsegments +3\n", 0},
		{"leading zero", manifestHeader + "\nsegments 03\n", 0},
		{"trailing line", manifestBody(3) + "segments 4\n", 0},
		{"zero", manifestBody(0), 0},
		{"negative", manifestBody(-2), 0},
		{"no count", manifestHeader + "\nsegments \n", 0},
		{"no count line", manifestHeader + "\n", 0},
		{"unknown header", "ams-corpus-manifest v2\nsegments 3\n", 0},
		{"empty", "", 0},
	} {
		n, err := parseManifest([]byte(tc.data))
		if tc.want == 0 {
			if err == nil {
				t.Errorf("%s: %q accepted as %d segments", tc.name, tc.data, n)
			}
		} else if err != nil || n != tc.want {
			t.Errorf("%s: %q = %d, %v; want %d", tc.name, tc.data, n, err, tc.want)
		}
	}
}

// manifestSeeds are FuzzParseManifest's checked-in seeds, by name and
// segment count: canonical manifests written from manifestBody, kept
// current by TestFuzzSeedsMatchTheEncoder.
var manifestSeeds = map[string]int{"one": 1, "three": 3, "wide": 4096}

// FuzzParseManifest: the parser never panics, and every manifest it
// accepts names a positive count and is that count's canonical body,
// which parses back to the same count.
func FuzzParseManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := parseManifest(data)
		if err != nil {
			return
		}
		if n <= 0 {
			t.Fatalf("%q accepted with segment count %d", data, n)
		}
		body := manifestBody(n)
		if string(data) != body {
			t.Fatalf("%q accepted as %d segments but is not that count's manifest %q", data, n, body)
		}
		if back, err := parseManifest([]byte(body)); err != nil || back != n {
			t.Fatalf("canonical manifest of %d parses to %d, %v", n, back, err)
		}
	})
}
