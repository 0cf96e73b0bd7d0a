// Package isa implements the accelerator's Global Controller interface
// (paper §3.1): "a global controller (GC) decodes CPU instructions and
// controls the heterogeneous DNN mapping and inference. The GC receives
// instructions and signals the input/output buffer and tiles through the
// bus." A compiled allocation plan becomes a binary instruction stream.
// Validate checks a stream against the plan's protocol statically and Time
// prices it; computing the inference itself is sim.Engine's job.
//
// Instructions are layer-granular macro-operations — one FIRE signals a
// tile to sweep all of a layer's output positions — matching the GC's role
// of sequencing tiles rather than micromanaging crossbar cycles.
package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Opcode identifies a Global Controller instruction.
type Opcode uint8

// The instruction set. Operand use per opcode:
//
//	LDW   A=layer B=tile C=slots   program C slots of tile B with layer A's weights
//	SETIN A=layer                  latch layer A's input feature map into the input buffer
//	FIRE  A=layer B=tile           sweep all of layer A's MVM positions on tile B
//	MERGE A=layer                  accumulate partial sums across layer A's tiles/bands
//	ACT   A=layer                  apply ReLU to layer A's output buffer
//	POOL  A=model-layer index      run the pooling module for pool layer A
//	STORE A=layer                  commit layer A's output feature map
//	HALT                           end of program
const (
	OpLDW Opcode = iota + 1
	OpSETIN
	OpFIRE
	OpMERGE
	OpACT
	OpPOOL
	OpSTORE
	OpHALT
)

// String returns the mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpLDW:
		return "LDW"
	case OpSETIN:
		return "SETIN"
	case OpFIRE:
		return "FIRE"
	case OpMERGE:
		return "MERGE"
	case OpACT:
		return "ACT"
	case OpPOOL:
		return "POOL"
	case OpSTORE:
		return "STORE"
	case OpHALT:
		return "HALT"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Instr is one fixed-width instruction: opcode plus three operands.
type Instr struct {
	Op      Opcode
	A, B, C int32
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpLDW:
		return fmt.Sprintf("LDW   L%d tile=%d slots=%d", i.A+1, i.B, i.C)
	case OpFIRE:
		return fmt.Sprintf("FIRE  L%d tile=%d", i.A+1, i.B)
	case OpSETIN, OpMERGE, OpACT, OpSTORE:
		return fmt.Sprintf("%-5s L%d", i.Op, i.A+1)
	case OpPOOL:
		return fmt.Sprintf("POOL  layer=%d", i.A)
	case OpHALT:
		return "HALT"
	default:
		return fmt.Sprintf("%v %d %d %d", i.Op, i.A, i.B, i.C)
	}
}

// Program is a GC instruction stream.
type Program struct {
	Instrs []Instr
}

// magic identifies serialized programs ("AHGC" = AutoHet Global Controller).
var magic = [4]byte{'A', 'H', 'G', 'C'}

const version uint16 = 1

// Encode serializes the program to its binary wire format: a magic/version
// header, an instruction count, and fixed 13-byte instructions.
func (p *Program) Encode(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, version); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(p.Instrs))); err != nil {
		return err
	}
	for _, in := range p.Instrs {
		if err := binary.Write(w, binary.LittleEndian, in.Op); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, [3]int32{in.A, in.B, in.C}); err != nil {
			return err
		}
	}
	return nil
}

// Decode parses a binary program, rejecting bad magic or version.
func Decode(r io.Reader) (*Program, error) {
	var m [4]byte
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("isa: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("isa: bad magic %q", m)
	}
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("isa: unsupported version %d", v)
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxInstrs = 1 << 24
	if n > maxInstrs {
		return nil, fmt.Errorf("isa: instruction count %d exceeds limit", n)
	}
	p := &Program{Instrs: make([]Instr, n)}
	for i := range p.Instrs {
		if err := binary.Read(r, binary.LittleEndian, &p.Instrs[i].Op); err != nil {
			return nil, fmt.Errorf("isa: instruction %d: %w", i, err)
		}
		var ops [3]int32
		if err := binary.Read(r, binary.LittleEndian, &ops); err != nil {
			return nil, fmt.Errorf("isa: instruction %d operands: %w", i, err)
		}
		p.Instrs[i].A, p.Instrs[i].B, p.Instrs[i].C = ops[0], ops[1], ops[2]
	}
	return p, nil
}

// Bytes encodes the program into a byte slice.
func (p *Program) Bytes() []byte {
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// Disassemble renders one instruction per line.
func (p *Program) Disassemble(w io.Writer) error {
	for pc, in := range p.Instrs {
		if _, err := fmt.Fprintf(w, "%04d  %s\n", pc, in); err != nil {
			return err
		}
	}
	return nil
}
