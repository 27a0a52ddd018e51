package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"

	"ams/internal/tensor"
)

// netBlob is the gob wire format for a Net: architecture plus every
// parameter tensor in Params() order, each weight matrix output-major
// (Out x In). The Net stores it input-major, so Save and Load transpose.
type netBlob struct {
	In      int
	Hidden  []int
	Out     int
	Dueling bool
	Values  [][]float64
}

// Save writes the network to w in gob format.
func (n *Net) Save(w io.Writer) error {
	blob := netBlob{In: n.in, Hidden: n.hidden, Out: n.out, Dueling: n.dueling}
	for _, l := range n.layers {
		blob.Values = append(blob.Values, l.W.Transpose().Data, l.B.Clone())
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("nn: save network: %w", err)
	}
	return nil
}

// Load reads a network previously written with Save. The blob's
// dimensions and parameter lengths are checked against each other before
// anything is allocated, so a malformed or hostile blob is an error, and
// the network it builds is no larger than the values actually decoded.
func Load(r io.Reader) (*Net, error) {
	var blob netBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	if err := blob.check(); err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	n := NewNet(Config{In: blob.In, Hidden: blob.Hidden, Out: blob.Out, Dueling: blob.Dueling}, nil)
	for i, l := range n.layers {
		w := tensor.Mat{Rows: l.Out, Cols: l.In, Data: blob.Values[2*i]}
		copy(l.W.Data, w.Transpose().Data)
		copy(l.B, blob.Values[2*i+1])
	}
	return n, nil
}

// check reports whether the blob describes a network NewNet accepts and
// carries exactly the parameter tensors, in Params() order, that network
// has: a weight matrix and a bias per layer.
func (b *netBlob) check() error {
	if b.In <= 0 || b.Out <= 0 || len(b.Hidden) == 0 || slices.Min(b.Hidden) <= 0 {
		return fmt.Errorf("invalid dims in=%d hidden=%v out=%d", b.In, b.Hidden, b.Out)
	}
	// Each layer's output width: the hidden layers, the advantage head
	// and the dueling value head. Both heads read the last hidden layer.
	outs := append(slices.Clone(b.Hidden), b.Out)
	if b.Dueling {
		outs = append(outs, 1)
	}
	if len(b.Values) != 2*len(outs) {
		return fmt.Errorf("expected %d parameter tensors, got %d", 2*len(outs), len(b.Values))
	}
	in := b.In
	for i, out := range outs {
		if in > math.MaxInt/out {
			return fmt.Errorf("layer %d: %dx%d weights overflow int", i, in, out)
		}
		if w, bias := b.Values[2*i], b.Values[2*i+1]; len(w) != in*out || len(bias) != out {
			return fmt.Errorf("layer %d has %d weights and %d biases, want %d and %d",
				i, len(w), len(bias), in*out, out)
		}
		if i < len(b.Hidden) {
			in = out
		}
	}
	return nil
}
