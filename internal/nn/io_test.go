package nn

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// TestLoadRejectsMalformedBlobs: a blob whose dimensions NewNet would
// refuse, or whose dimensions ask for more than its values carry, is an
// error before anything is allocated; a blob Save wrote loads back.
func TestLoadRejectsMalformedBlobs(t *testing.T) {
	var saved bytes.Buffer
	if err := newTestNet(true).Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		blob netBlob
		want string
	}{
		{"negative input", netBlob{In: -1, Hidden: []int{2}, Out: 2}, "invalid dims"},
		{"negative hidden width", netBlob{In: 2, Hidden: []int{-2}, Out: 2}, "invalid dims"},
		{"zero outputs", netBlob{In: 2, Hidden: []int{2}, Out: 0}, "invalid dims"},
		{"no hidden layer", netBlob{In: 2, Out: 2}, "invalid dims"},
		{"dims past the values", netBlob{In: 1 << 40, Hidden: []int{1 << 30}, Out: 2}, "expected 4 parameter tensors, got 0"},
		{"dims past int", netBlob{In: 1 << 40, Hidden: []int{1 << 30}, Out: 2, Values: make([][]float64, 4)}, "overflow int"},
		{"values short of the dims", netBlob{In: 2, Hidden: []int{3}, Out: 2, Values: [][]float64{make([]float64, 6), make([]float64, 3), make([]float64, 6), {0}}}, "layer 1 has 6 weights and 1 biases"},
		{"saved", netBlob{}, ""},
	} {
		raw := saved.Bytes()
		if tc.want != "" {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tc.blob); err != nil {
				t.Fatal(err)
			}
			raw = buf.Bytes()
		}
		n, err := Load(bytes.NewReader(raw))
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: Load = %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Load = %v, want an error containing %q", tc.name, err, tc.want)
		case tc.want == "" && n.NumParams() != newTestNet(true).NumParams():
			t.Errorf("%s: loaded %d params, want %d", tc.name, n.NumParams(), newTestNet(true).NumParams())
		}
	}
}
