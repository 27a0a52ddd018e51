package nn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ams/internal/tensor"
)

// fixtureStates are the inputs the wire-format fixtures are pinned on.
var fixtureStates = [][]int{nil, {0, 4, 11}, {11, 2, 7, 3, 9}}

// fixtureNet builds the network behind testdata/<name>.gob: a seeded net
// after three Adam steps, so its biases are not zero. The plain net has
// one hidden layer, the dueling net two.
func fixtureNet(dueling bool) *Net {
	hidden := []int{8}
	if dueling {
		hidden = []int{8, 6}
	}
	n := NewNet(Config{In: 12, Hidden: hidden, Out: 5, Dueling: dueling}, tensor.NewRNG(3))
	opt := NewAdam(0.05)
	dQ := tensor.NewVec(5)
	for step := 0; step < 3; step++ {
		n.ZeroGrad()
		for _, s := range fixtureStates {
			q := n.Forward(s)
			dQ.Zero()
			dQ[step] = q[step] - 1
			n.Backward(dQ)
		}
		opt.Step(n)
	}
	return n
}

// TestWireFormatFixtures loads blobs written by Save when weights were
// stored output-major, before Net stored them input-major. The wire format
// must not have moved: each blob loads to a network with the pinned
// Q-values, saves back to the same bytes, and is what fixtureNet saves.
func TestWireFormatFixtures(t *testing.T) {
	pins := map[string][][]uint64{
		"plain": {
			{0x3fd0478c9021f85e, 0x3fc58dd5c8a4e447, 0x3fa391c294261512, 0xbfc047dc31a82712, 0xbfbe67d9d598cd5a},
			{0x3ff5d6a91e50a2c2, 0x3ff2011c5e785273, 0xbfe28a7bb4ff821c, 0xbfeb7179e8bc6085, 0xbfee6b7ef36d1f44},
			{0x3fe4a192a2dc373c, 0x3ff0b47575947d78, 0xc0016f5d038806dc, 0x3f63bbd746280d6c, 0xbff2e9d60c4e0746},
		},
		"dueling": {
			{0x3fdba1439b6a4b83, 0x3fce17fc0e29cbd2, 0x3fcb8779cc759990, 0x3fa0ef3caaa478ee, 0x3fa6df13408de12a},
			{0x3ff32975be8c0220, 0x3ff08e1f745b83e4, 0x3fdfddc814fdb851, 0xbfc397ee9f87ae11, 0x3fc5ddb90faf7909},
			{0x3fecb02105be8230, 0x3fe217c842623553, 0xbfda745083503209, 0xbfcc3219b1c76c90, 0xbfe0d14f3d500303},
		},
	}
	for name, dueling := range map[string]bool{"plain": false, "dueling": true} {
		blob, err := os.ReadFile(filepath.Join("testdata", name+".gob"))
		if err != nil {
			t.Fatal(err)
		}
		n, err := Load(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := Freeze(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		scratch := f.NewScratch()
		for si, s := range fixtureStates {
			q, fq := n.Forward(s), f.Forward(scratch, s)
			for i, want := range pins[name][si] {
				if math.Float64bits(q[i]) != want || math.Float64bits(fq[i]) != want {
					t.Fatalf("%s state %v: Q[%d] = %#016x (frozen %#016x), want %#016x",
						name, s, i, math.Float64bits(q[i]), math.Float64bits(fq[i]), want)
				}
			}
		}
		for _, src := range []struct {
			what string
			net  *Net
		}{{"Save(Load(blob))", n}, {"fixtureNet", fixtureNet(dueling)}} {
			var out bytes.Buffer
			if err := src.net.Save(&out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), blob) {
				t.Fatalf("%s: %s wrote %d bytes that differ from the %d-byte fixture", name, src.what, out.Len(), len(blob))
			}
		}
	}
}
