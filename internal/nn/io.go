package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// netBlob is the gob wire format for a Net: architecture plus every
// parameter tensor in Params() order.
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
	for _, p := range n.Params() {
		blob.Values = append(blob.Values, append([]float64(nil), p.Val...))
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("nn: save network: %w", err)
	}
	return nil
}

// Load reads a network previously written with Save.
func Load(r io.Reader) (*Net, error) {
	var blob netBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	n := NewNet(Config{In: blob.In, Hidden: blob.Hidden, Out: blob.Out, Dueling: blob.Dueling}, nil)
	params := n.Params()
	if len(params) != len(blob.Values) {
		return nil, fmt.Errorf("nn: load network: expected %d parameter tensors, got %d",
			len(params), len(blob.Values))
	}
	for i, p := range params {
		if len(p.Val) != len(blob.Values[i]) {
			return nil, fmt.Errorf("nn: load network: parameter %d has %d values, want %d",
				i, len(blob.Values[i]), len(p.Val))
		}
		copy(p.Val, blob.Values[i])
	}
	return n, nil
}

// SaveFile writes the network to the named file.
func (n *Net) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: save network: %w", err)
	}
	defer f.Close()
	if err := n.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from the named file.
func LoadFile(path string) (*Net, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	defer f.Close()
	return Load(f)
}
