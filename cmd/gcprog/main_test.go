package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autohet/internal/isa"
)

func TestCompileDisassembleTimeRun(t *testing.T) {
	if err := mainErr("LeNet5", "64x64", "", true, "", "", true, true, 1); err != nil {
		t.Fatal(err)
	}
}

// A saved program with one LDW slot count changed is refused by -run and
// -time alike.
func TestCorruptedProgramRejected(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gc")
	if err := mainErr("LeNet5", "64x64", "", false, good, "", false, false, 1); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(good)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := isa.Decode(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	ldw := -1
	for i, in := range prog.Instrs {
		if in.Op == isa.OpLDW {
			ldw = i
			break
		}
	}
	if ldw < 0 {
		t.Fatal("no LDW in the compiled program")
	}
	prog.Instrs[ldw].C++
	bad := filepath.Join(dir, "bad.gc")
	if err := os.WriteFile(bad, prog.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name      string
		run, time bool
	}{{"-run", true, false}, {"-time", false, true}} {
		err := mainErr("LeNet5", "64x64", "", false, "", bad, mode.run, mode.time, 1)
		if err == nil || !strings.Contains(err.Error(), "plan says") {
			t.Errorf("%s: error %v, want the LDW slot-count error", mode.name, err)
		}
	}
}

// DepthwiseNet's program is valid, but sim.Engine does not run grouped
// convolutions, so -run reports that instead of printing logits.
func TestRunRejectsGroupedConv(t *testing.T) {
	err := mainErr("DepthwiseNet", "128x128", "", false, "", "", true, false, 1)
	if err == nil || !strings.Contains(err.Error(), "grouped convolutions") {
		t.Fatalf("error %v, want the engine's grouped-conv error", err)
	}
}
