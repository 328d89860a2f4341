package models

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"cognitivearm/internal/rf"
)

// Classifier serialization covers the whole zoo: NN families persist their
// spec plus flat weight tensors in parameter order, random forests persist
// the flat node encoding of rf.ForestData, and ensembles persist their
// members recursively.
// Every payload round-trips float64 values exactly, so a deserialised model
// emits bitwise-identical predictions — the property the serving fleet's
// checkpoint/restore path (internal/checkpoint) is built on.

// Kind tags in the saved container.
const (
	savedKindNN       = "nn"
	savedKindRF       = "rf"
	savedKindEnsemble = "ensemble"
)

// savedClassifier is the on-disk container: a tagged union over the
// classifier kinds. Only the fields for Kind are populated.
type savedClassifier struct {
	Kind string
	// Spec is stored for nn and rf kinds.
	Spec Spec
	// Weights holds the flat NN weight tensors in nn.Network.Params order.
	Weights [][]float64
	// Forest is the flat node encoding of a trained rf.Forest.
	Forest *rf.ForestData
	// Members holds each ensemble member as its own nested Save payload.
	Members [][]byte
}

// Save writes any supported classifier to w in gob format: *NNClassifier,
// *RFClassifier, or an *Ensemble of them.
func Save(w io.Writer, c Classifier) error {
	sc, err := toSaved(c)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(sc); err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	return nil
}

func toSaved(c Classifier) (*savedClassifier, error) {
	switch v := c.(type) {
	case *NNClassifier:
		sc := &savedClassifier{Kind: savedKindNN, Spec: v.Spec}
		for _, p := range v.Net.Params() {
			sc.Weights = append(sc.Weights, append([]float64(nil), p.W.Data...))
		}
		return sc, nil
	case *RFClassifier:
		return &savedClassifier{Kind: savedKindRF, Spec: v.Spec, Forest: v.Forest.Export()}, nil
	case *Ensemble:
		sc := &savedClassifier{Kind: savedKindEnsemble}
		for i, m := range v.Members {
			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				return nil, fmt.Errorf("models: save ensemble member %d: %w", i, err)
			}
			sc.Members = append(sc.Members, buf.Bytes())
		}
		return sc, nil
	}
	return nil, fmt.Errorf("models: cannot serialise classifier type %T", c)
}

// Load reads a classifier written by Save, rebuilding the architecture from
// the stored spec (or node encoding) and restoring parameters exactly.
func Load(r io.Reader) (Classifier, error) {
	var sc savedClassifier
	if err := gob.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	return fromSaved(&sc)
}

func fromSaved(sc *savedClassifier) (Classifier, error) {
	switch sc.Kind {
	case savedKindNN:
		return restoreNN(sc.Spec, sc.Weights)
	case "":
		// Legacy NN-only payload (pre-checkpoint savedModel): no kind tag,
		// but gob matched its Spec/Weights fields by name.
		if len(sc.Weights) > 0 {
			return restoreNN(sc.Spec, sc.Weights)
		}
		return nil, fmt.Errorf("models: load: unknown classifier kind %q", sc.Kind)
	case savedKindRF:
		if err := sc.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("models: load: %w", err)
		}
		forest, err := rf.FromData(sc.Forest)
		if err != nil {
			return nil, fmt.Errorf("models: load: %w", err)
		}
		return &RFClassifier{Forest: forest, Spec: sc.Spec}, nil
	case savedKindEnsemble:
		if len(sc.Members) == 0 {
			return nil, fmt.Errorf("models: load: ensemble with no members")
		}
		members := make([]Classifier, len(sc.Members))
		for i, raw := range sc.Members {
			m, err := Load(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("models: load ensemble member %d: %w", i, err)
			}
			members[i] = m
		}
		return NewEnsemble(members...)
	default:
		return nil, fmt.Errorf("models: load: unknown classifier kind %q", sc.Kind)
	}
}

// restoreNN rebuilds a network from spec and copies the stored weights in.
func restoreNN(spec Spec, weights [][]float64) (*NNClassifier, error) {
	net, err := BuildNet(spec, 0)
	if err != nil {
		return nil, fmt.Errorf("models: load: rebuild: %w", err)
	}
	params := net.Params()
	if len(params) != len(weights) {
		return nil, fmt.Errorf("models: load: parameter count mismatch (%d stored, %d rebuilt)",
			len(weights), len(params))
	}
	for i, p := range params {
		if len(p.W.Data) != len(weights[i]) {
			return nil, fmt.Errorf("models: load: parameter %d size mismatch (%d stored, %d rebuilt)",
				i, len(weights[i]), len(p.W.Data))
		}
		copy(p.W.Data, weights[i])
	}
	return &NNClassifier{Net: net, Spec: spec}, nil
}
