package dnn

import "fmt"

// Model is an ordered sequence of layers plus the input tensor shape it
// expects. Construct one with NewModel (or a zoo builder) so shapes are
// propagated and validated once, up front.
type Model struct {
	Name   string
	Layers []*Layer // all layers, including Pool

	InH, InW, InC int // input tensor shape (from the dataset)

	mappable []*Layer // cached Conv/FC subsequence, in order
}

// NewModel builds a model, propagates feature-map shapes through every
// layer, and validates consistency (e.g. channel counts must chain).
func NewModel(name string, inH, inW, inC int, layers []*Layer) (*Model, error) {
	if inH <= 0 || inW <= 0 || inC <= 0 {
		return nil, fmt.Errorf("dnn: model %q invalid input shape %dx%dx%d", name, inH, inW, inC)
	}
	m := &Model{Name: name, Layers: layers, InH: inH, InW: inW, InC: inC}
	if err := m.propagate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustModel is NewModel that panics on error; used by the zoo builders whose
// inputs are compile-time constants.
func MustModel(name string, inH, inW, inC int, layers []*Layer) *Model {
	m, err := NewModel(name, inH, inW, inC, layers)
	if err != nil {
		panic(err)
	}
	return m
}

// NewFlatModel builds a model from layers whose input feature-map sizes
// (InH, InW) are preassigned by the caller instead of derived by chaining.
// Networks with skip connections (ResNet152's bottleneck blocks run a
// downsample conv in parallel with the main path) cannot be expressed as a
// strict chain, but AutoHet only needs each layer's own shape, so the zoo
// assigns shapes per layer and validates them here.
func NewFlatModel(name string, inH, inW, inC int, layers []*Layer) (*Model, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("dnn: flat model %q has no layers", name)
	}
	m := &Model{Name: name, Layers: layers, InH: inH, InW: inW, InC: inC}
	idx := 0
	for i, l := range layers {
		if err := l.Validate(); err != nil {
			return nil, err
		}
		if l.InH <= 0 || l.InW <= 0 {
			return nil, fmt.Errorf("dnn: flat model %q layer %d (%s): InH/InW must be preassigned", name, i, l.Name)
		}
		switch l.Kind {
		case FC:
			l.OutH, l.OutW = 1, 1
		default:
			l.OutH = convOut(l.InH, l.K, l.Stride, l.Pad)
			l.OutW = convOut(l.InW, l.K, l.Stride, l.Pad)
		}
		l.Index = -1
		if l.Mappable() {
			l.Index = idx
			idx++
			m.mappable = append(m.mappable, l)
		}
	}
	if idx == 0 {
		return nil, fmt.Errorf("dnn: flat model %q has no mappable layers", name)
	}
	return m, nil
}

// MustFlatModel is NewFlatModel that panics on error.
func MustFlatModel(name string, inH, inW, inC int, layers []*Layer) *Model {
	m, err := NewFlatModel(name, inH, inW, inC, layers)
	if err != nil {
		panic(err)
	}
	return m
}

func convOut(in, k, stride, pad int) int {
	out := (in+2*pad-k)/stride + 1
	if out < 1 {
		out = 1
	}
	return out
}

// propagate walks the layers, filling InH/InW/OutH/OutW/Index and checking
// that channel counts chain correctly. FC layers flatten whatever spatial
// extent precedes them: the first FC's InC must equal C·H·W of its input.
func (m *Model) propagate() error {
	h, w, c := m.InH, m.InW, m.InC
	flattened := false
	idx := 0
	m.mappable = m.mappable[:0]
	for i, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
		l.InH, l.InW = h, w
		l.Index = -1
		switch l.Kind {
		case Conv:
			if flattened {
				return fmt.Errorf("dnn: model %q layer %d: CONV after FC", m.Name, i)
			}
			if l.InC != c {
				return fmt.Errorf("dnn: model %q layer %d (%s): input channels %d, previous produced %d",
					m.Name, i, l.Name, l.InC, c)
			}
			h = convOut(h, l.K, l.Stride, l.Pad)
			w = convOut(w, l.K, l.Stride, l.Pad)
			c = l.OutC
		case Pool:
			if flattened {
				return fmt.Errorf("dnn: model %q layer %d: POOL after FC", m.Name, i)
			}
			h = convOut(h, l.K, l.Stride, 0)
			w = convOut(w, l.K, l.Stride, 0)
			l.InC, l.OutC = c, c
		case FC:
			if !flattened {
				want := c * h * w
				if l.InC != want {
					return fmt.Errorf("dnn: model %q layer %d (%s): FC input %d, flatten gives %d (=%d·%d·%d)",
						m.Name, i, l.Name, l.InC, want, c, h, w)
				}
				flattened = true
			} else if l.InC != c {
				return fmt.Errorf("dnn: model %q layer %d (%s): FC input %d, previous produced %d",
					m.Name, i, l.Name, l.InC, c)
			}
			h, w = 1, 1
			c = l.OutC
		}
		l.OutH, l.OutW = h, w
		if l.Mappable() {
			l.Index = idx
			idx++
			m.mappable = append(m.mappable, l)
		}
	}
	if idx == 0 {
		return fmt.Errorf("dnn: model %q has no mappable layers", m.Name)
	}
	return nil
}

// Mappable returns the Conv/FC layers in order — the layers the RL agent
// assigns crossbar types to.
func (m *Model) Mappable() []*Layer { return m.mappable }

// NumMappable returns the number of Conv/FC layers (N in the paper's C^N
// search-space size).
func (m *Model) NumMappable() int { return len(m.mappable) }

// TotalWeights returns the total weight count across mappable layers.
func (m *Model) TotalWeights() int64 {
	var total int64
	for _, l := range m.mappable {
		total += int64(l.Weights())
	}
	return total
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s: %d layers (%d mappable), %d weights, input %dx%dx%d",
		m.Name, len(m.Layers), len(m.mappable), m.TotalWeights(), m.InH, m.InW, m.InC)
}
