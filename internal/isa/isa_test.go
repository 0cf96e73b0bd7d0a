package isa

import (
	"bytes"
	"strings"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/xbar"
)

func tinyPlan(t *testing.T) *accel.Plan {
	t.Helper()
	m, err := dnn.NewModel("tinycnn", 6, 6, 1, []*dnn.Layer{
		{Name: "c1", Kind: dnn.Conv, K: 3, InC: 1, OutC: 4, Stride: 1, Pad: 1},
		{Name: "p1", Kind: dnn.Pool, K: 2, Stride: 2},
		{Name: "c2", Kind: dnn.Conv, K: 3, InC: 4, OutC: 8, Stride: 1, Pad: 1},
		{Name: "p2", Kind: dnn.Pool, K: 3, Stride: 3},
		{Name: "f1", Kind: dnn.FC, K: 1, InC: 8, OutC: 5, Stride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(3, xbar.Square(32)), true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOpcodeStrings(t *testing.T) {
	ops := map[Opcode]string{
		OpLDW: "LDW", OpSETIN: "SETIN", OpFIRE: "FIRE", OpMERGE: "MERGE",
		OpACT: "ACT", OpPOOL: "POOL", OpSTORE: "STORE", OpHALT: "HALT",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if !strings.Contains(Opcode(99).String(), "99") {
		t.Error("unknown opcode string wrong")
	}
}

func TestCompileStructure(t *testing.T) {
	p := tinyPlan(t)
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Instrs[len(prog.Instrs)-1].Op != OpHALT {
		t.Fatal("program must end with HALT")
	}
	// One LDW per placement.
	var ldw, fire, merge, store, pool, act int
	for _, in := range prog.Instrs {
		switch in.Op {
		case OpLDW:
			ldw++
		case OpFIRE:
			fire++
		case OpMERGE:
			merge++
		case OpSTORE:
			store++
		case OpPOOL:
			pool++
		case OpACT:
			act++
		}
	}
	placements := 0
	for _, la := range p.Layers {
		placements += len(la.Placements)
	}
	if ldw != placements || fire != placements {
		t.Fatalf("LDW=%d FIRE=%d, placements=%d", ldw, fire, placements)
	}
	if merge != 3 || store != 3 || pool != 2 {
		t.Fatalf("MERGE=%d STORE=%d POOL=%d", merge, store, pool)
	}
	if act != 2 { // all mappable layers but the last
		t.Fatalf("ACT=%d, want 2", act)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := tinyPlan(t)
	prog, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	data := prog.Bytes()
	back, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instrs) != len(prog.Instrs) {
		t.Fatalf("round trip %d instrs, want %d", len(back.Instrs), len(prog.Instrs))
	}
	for i := range prog.Instrs {
		if back.Instrs[i] != prog.Instrs[i] {
			t.Fatalf("instr %d: %v vs %v", i, back.Instrs[i], prog.Instrs[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("AHGC"),                           // truncated after magic
		append([]byte("AHGC"), 9, 0, 1, 0, 0, 0), // bad version
		append([]byte("AHGC"), 1, 0, 255, 255, 255, 255), // absurd count
	}
	for i, data := range cases {
		if _, err := Decode(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d decoded but should not", i)
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := tinyPlan(t)
	prog, _ := Compile(p)
	var buf bytes.Buffer
	if err := prog.Disassemble(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LDW", "SETIN", "FIRE", "MERGE", "ACT", "POOL", "STORE", "HALT"} {
		if !strings.Contains(out, want) {
			t.Fatalf("disassembly missing %s:\n%s", want, out)
		}
	}
}

// badProgram is a compiled program mutated into one protocol violation, and
// a substring of the error it must draw.
type badProgram struct {
	prog *Program
	want string
}

// badPrograms is the table of protocol violations on p's compiled program
// that Validate and Time must both reject.
func badPrograms(t *testing.T, p *accel.Plan) map[string]badProgram {
	t.Helper()
	good, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(want string, f func([]Instr) []Instr) badProgram {
		cp := append([]Instr(nil), good.Instrs...)
		return badProgram{&Program{Instrs: f(cp)}, want}
	}
	// find returns the pc of the n-th (0-based; -1 for the last) op.
	find := func(op Opcode, n int) int {
		var pcs []int
		for i, in := range good.Instrs {
			if in.Op == op {
				pcs = append(pcs, i)
			}
		}
		if n < 0 {
			n += len(pcs)
		}
		if n < 0 || n >= len(pcs) {
			t.Fatalf("no %v #%d in program", op, n)
		}
		return pcs[n]
	}
	remove := func(is []Instr, i int) []Instr { return append(is[:i], is[i+1:]...) }
	last := int32(p.Model.NumMappable() - 1)

	return map[string]badProgram{
		"missing HALT": mutate("did not HALT", func(is []Instr) []Instr { return is[:len(is)-1] }),
		"fire before load": mutate("unprogrammed tile", func(is []Instr) []Instr {
			out := is[:0]
			for _, in := range is {
				if in.Op != OpLDW {
					out = append(out, in)
				}
			}
			return out
		}),
		"fire before setin": mutate("before SETIN", func(is []Instr) []Instr {
			i := find(OpSETIN, 0)
			is[i], is[i+1] = is[i+1], is[i]
			return is
		}),
		"merge before fire": mutate("MERGE L1 before tile", func(is []Instr) []Instr {
			i := find(OpFIRE, 0)
			is[i] = Instr{Op: OpMERGE, A: is[i].A}
			return is
		}),
		"ACT before merge": mutate("ACT L1 before MERGE", func(is []Instr) []Instr {
			return remove(is, find(OpMERGE, 0))
		}),
		"instruction after halt": mutate("after HALT", func(is []Instr) []Instr {
			return append(is, Instr{Op: OpSETIN})
		}),
		"bad layer operand": mutate("out of range", func(is []Instr) []Instr {
			is[0].A = 99
			return is
		}),
		"unknown opcode": mutate("unknown opcode", func(is []Instr) []Instr {
			is[0].Op = Opcode(77)
			return is
		}),
		"LDW slot mismatch": mutate("plan says", func(is []Instr) []Instr {
			is[0].C++
			return is
		}),
		"LDW to foreign tile": mutate("holds none of its slots", func(is []Instr) []Instr {
			is[0].B = 9999
			return is
		}),
		"POOL on a conv layer": mutate("non-pool layer", func(is []Instr) []Instr {
			is[find(OpPOOL, 0)].A = 0
			return is
		}),
		"layers out of order": mutate("out of order", func(is []Instr) []Instr {
			// Run the second conv before the pool that feeds it.
			i, j := find(OpPOOL, 0), find(OpSTORE, 1)
			out := append([]Instr(nil), is[:i]...)
			out = append(out, is[i+1:j+1]...)
			out = append(out, is[i])
			return append(out, is[j+1:]...)
		}),
		"ACT missing on a middle layer": mutate("before ACT", func(is []Instr) []Instr {
			return remove(is, find(OpACT, 1))
		}),
		"ACT on the final layer": mutate("on the final layer", func(is []Instr) []Instr {
			i := find(OpMERGE, -1) + 1
			return append(is[:i], append([]Instr{{Op: OpACT, A: last}}, is[i:]...)...)
		}),
		"final layer never stored": mutate("never stored", func(is []Instr) []Instr {
			return remove(is, find(OpSTORE, -1))
		}),
	}
}

// Every zoo model's compiled program passes Validate, also after a trip
// through the binary format.
func TestCompileOutputValidates(t *testing.T) {
	models := []*dnn.Model{dnn.AlexNet(), dnn.VGG16(), dnn.ResNet152(), dnn.LeNet5(),
		dnn.VGG11(), dnn.ResNet18(), dnn.DepthwiseNet()}
	for _, m := range models {
		for _, side := range []int{64, 128} {
			p, err := accel.BuildPlan(hw.DefaultConfig(), m, accel.Homogeneous(m.NumMappable(), xbar.Square(side)), true)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(prog, p); err != nil {
				t.Fatalf("%s %dx%d: %v", m.Name, side, side, err)
			}
			back, err := Decode(bytes.NewReader(prog.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(back, p); err != nil {
				t.Fatalf("%s %dx%d after Decode(Encode): %v", m.Name, side, side, err)
			}
		}
	}
}

// Validate is the Global Controller's protocol check: it must reject every
// bad program with the expected error. The LDW cases are checked by
// TestLDWValidatesAgainstPlan.
func TestControllerProtocolViolations(t *testing.T) {
	p := tinyPlan(t)
	for name, bad := range badPrograms(t, p) {
		if strings.HasPrefix(name, "LDW") {
			continue
		}
		if err := Validate(bad.prog, p); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: Validate error %v, want %q", name, err, bad.want)
		}
	}
	good, _ := Compile(p)
	if err := Validate(good, p); err != nil {
		t.Fatalf("compiled program must validate: %v", err)
	}
}

// An LDW must match the plan's slot count for its tile and name a tile
// that holds the layer's slots.
func TestLDWValidatesAgainstPlan(t *testing.T) {
	p := tinyPlan(t)
	n := 0
	for name, bad := range badPrograms(t, p) {
		if !strings.HasPrefix(name, "LDW") {
			continue
		}
		n++
		if err := Validate(bad.prog, p); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: Validate error %v, want %q", name, err, bad.want)
		}
	}
	if n != 2 {
		t.Fatalf("%d LDW cases in the bad-program table, want 2", n)
	}
}

func TestCompileRejectsInvalidPlan(t *testing.T) {
	p := tinyPlan(t)
	p.Layers[0].Placements = nil
	if _, err := Compile(p); err == nil {
		t.Fatal("invalid plan must not compile")
	}
}
