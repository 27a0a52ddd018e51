// Package core implements the paper's primary contribution: the adaptive
// model scheduling framework. It wires the labeling environment (oracle
// ground truth) to the DRL machinery (internal/rl), trains model-value
// prediction agents with the paper's reward function (Eq. 3) and END
// action, and exposes the trained agent as a predictor the scheduling
// algorithms consume.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"

	"ams/internal/nn"
	"ams/internal/rl"
	"ams/internal/tensor"
)

// Agent is a trained model-value predictor: a Q network over the labeling
// state whose first NumModels outputs are per-model values and whose last
// output is the END action used during training.
//
// Prediction runs on an inference view of Net frozen on first use, so Net
// must not change once the agent has predicted. The view is immutable and
// shared; what one goroutine owns is a scratch, so an Agent serves one
// goroutine and every other takes its own Fork.
type Agent struct {
	Net       *nn.Net
	NumModels int
	Algo      rl.Algorithm
	Dataset   string // profile name the agent was trained on

	freeze  sync.Once
	frozen  *nn.Frozen
	scratch tensor.Vec
}

// EndIndex returns the action index of the END action.
func (a *Agent) EndIndex() int { return a.NumModels }

// view returns the frozen network, building it on first use. A network
// with a non-finite weight cannot be frozen and predicts nothing useful,
// so it panics here; LoadAgent reports it as an error instead.
func (a *Agent) view() *nn.Frozen {
	a.freeze.Do(func() {
		if a.frozen != nil {
			return
		}
		f, err := nn.Freeze(a.Net)
		if err != nil {
			panic(fmt.Sprintf("core: agent cannot predict: %v", err))
		}
		a.frozen = f
	})
	return a.frozen
}

// Fork returns an agent for another goroutine: it shares a's network and
// frozen view, which are only read, and owns its scratch.
func (a *Agent) Fork() *Agent {
	return &Agent{Net: a.Net, NumModels: a.NumModels, Algo: a.Algo, Dataset: a.Dataset, frozen: a.view()}
}

// Predict implements sched.Predictor: it returns the Q values of every
// action (models first, END last) for the sparse labeling state. The
// slice aliases the agent's scratch and is invalidated by the next call.
func (a *Agent) Predict(state []int) []float64 {
	f := a.view()
	if a.scratch == nil {
		a.scratch = f.NewScratch()
	}
	return f.Forward(a.scratch, state)
}

// agentBlob is the gob wire format of an Agent. The network is embedded
// as opaque bytes so the whole agent travels in a single gob message
// (a trailing second stream would trip over the decoder's read-ahead).
type agentBlob struct {
	NumModels int
	Algo      string
	Dataset   string
	Net       []byte
}

// Save writes the agent (metadata + network weights) to w.
func (a *Agent) Save(w io.Writer) error {
	var netBuf bytes.Buffer
	if err := a.Net.Save(&netBuf); err != nil {
		return err
	}
	blob := agentBlob{
		NumModels: a.NumModels,
		Algo:      a.Algo.String(),
		Dataset:   a.Dataset,
		Net:       netBuf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("core: save agent: %w", err)
	}
	return nil
}

// LoadAgent reads an agent previously written with Save.
func LoadAgent(r io.Reader) (*Agent, error) {
	var blob agentBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	algo, err := rl.ParseAlgorithm(blob.Algo)
	if err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(blob.Net))
	if err != nil {
		return nil, err
	}
	if net.Out() != blob.NumModels+1 {
		return nil, fmt.Errorf("core: load agent: network has %d outputs, want %d",
			net.Out(), blob.NumModels+1)
	}
	frozen, err := nn.Freeze(net)
	if err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	return &Agent{Net: net, NumModels: blob.NumModels, Algo: algo, Dataset: blob.Dataset, frozen: frozen}, nil
}

// SaveFile writes the agent to the named file.
func (a *Agent) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save agent: %w", err)
	}
	defer f.Close()
	if err := a.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadAgentFile reads an agent from the named file.
func LoadAgentFile(path string) (*Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load agent: %w", err)
	}
	defer f.Close()
	return LoadAgent(f)
}
