package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"autohet/internal/mat"
)

// Serialization via encoding/gob so trained DDPG policies can be stored and
// reused (the paper trains once offline and applies the strategy many
// times; persisting the agent makes that workflow concrete).

type layerDTO struct {
	Rows, Cols int
	W          []float64
	B          []float64
	Act        Activation
}

type networkDTO struct {
	Inputs int
	Layers []layerDTO
}

// Save writes the network's parameters (not gradients) to w.
func (n *Network) Save(w io.Writer) error {
	dto := networkDTO{Inputs: n.InputSize()}
	for _, l := range n.Layers {
		dto.Layers = append(dto.Layers, layerDTO{
			Rows: l.W.Rows,
			Cols: l.W.Cols,
			W:    append([]float64(nil), l.W.Data...),
			B:    append([]float64(nil), l.B...),
			Act:  l.Act,
		})
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadNetwork reads a network saved by Save.
func LoadNetwork(r io.Reader) (*Network, error) {
	var dto networkDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("nn: decoding network: %w", err)
	}
	if dto.Inputs <= 0 || len(dto.Layers) == 0 {
		return nil, fmt.Errorf("nn: corrupt network: inputs=%d layers=%d", dto.Inputs, len(dto.Layers))
	}
	n := &Network{}
	in := dto.Inputs
	for i, ld := range dto.Layers {
		if ld.Rows <= 0 || ld.Cols != in || len(ld.W) != ld.Rows*ld.Cols || len(ld.B) != ld.Rows {
			return nil, fmt.Errorf("nn: corrupt layer %d: %dx%d W=%d B=%d after %d inputs",
				i, ld.Rows, ld.Cols, len(ld.W), len(ld.B), in)
		}
		if !ld.Act.valid() {
			return nil, fmt.Errorf("nn: corrupt layer %d: unknown activation %d", i, int(ld.Act))
		}
		l := &Dense{
			W:   mat.FromSlice(ld.Rows, ld.Cols, append([]float64(nil), ld.W...)),
			B:   append([]float64(nil), ld.B...),
			Act: ld.Act,
			GW:  mat.New(ld.Rows, ld.Cols),
			GB:  make([]float64, ld.Rows),
		}
		n.Layers = append(n.Layers, l)
		in = ld.Rows
	}
	n.one = NewBatch(n, 1)
	return n, nil
}
