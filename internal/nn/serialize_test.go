package nn

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	n := newTestNet(31)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.InputSize() != n.InputSize() || back.OutputSize() != n.OutputSize() {
		t.Fatalf("shapes %d→%d vs %d→%d", back.InputSize(), back.OutputSize(), n.InputSize(), n.OutputSize())
	}
	x := []float64{0.3, -0.1, 0.9}
	a := append([]float64(nil), n.Forward(x)...)
	b := back.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Loaded network is trainable (gradients allocated).
	back.ZeroGrad()
	back.Backward([]float64{1, 1})
	if back.GradMaxAbs() == 0 {
		t.Fatal("loaded network has no gradient buffers")
	}
}

func TestLoadNetworkRejectsGarbage(t *testing.T) {
	if _, err := LoadNetwork(strings.NewReader("not gob")); err == nil {
		t.Fatal("garbage must not decode")
	}
	if _, err := LoadNetwork(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must not decode")
	}
}

// A saved layer whose activation is outside Linear..Sigmoid must fail to
// load, not panic at the first Forward.
func TestLoadNetworkRejectsUnknownActivation(t *testing.T) {
	for _, act := range []Activation{-1, Sigmoid + 1, 9} {
		n := newTestNet(33)
		n.Layers[1].Act = act
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadNetwork(&buf); err == nil || !strings.Contains(err.Error(), "unknown activation") {
			t.Fatalf("activation %d: err %v, want an unknown-activation error", int(act), err)
		}
	}
}

func TestSaveLoadIndependence(t *testing.T) {
	n := newTestNet(32)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the original must not affect the loaded copy.
	x := []float64{1, 2, 3}
	before := append([]float64(nil), back.Forward(x)...)
	n.Layers[0].W.Fill(0)
	after := back.Forward(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("loaded network shares memory with original")
		}
	}
}
