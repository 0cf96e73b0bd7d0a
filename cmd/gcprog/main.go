// Command gcprog compiles a DNN mapping into the accelerator's Global
// Controller instruction stream (paper §3.1), and can disassemble, save,
// load and price the binary program. Every program, compiled or loaded, is
// first checked against the plan with isa.Validate; -run then computes the
// inference the program describes on sim.Engine.
//
// Usage:
//
//	gcprog -model AlexNet -shape 64x64 -dis           # compile + disassemble
//	gcprog -model AlexNet -shape 64x64 -o prog.gc     # save binary
//	gcprog -model AlexNet -shape 64x64 -run           # validate + run on sim.Engine
//	gcprog -in prog.gc -model AlexNet -shape 64x64 -run
package main

import (
	"flag"
	"fmt"
	"os"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/isa"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

func main() {
	model := flag.String("model", "AlexNet", "model: AlexNet, VGG16, ResNet152")
	shape := flag.String("shape", "64x64", "homogeneous crossbar shape")
	strategy := flag.String("strategy", "", "explicit strategy (overrides -shape), e.g. \"L1:72x64 L2-L16:576x512\"")
	dis := flag.Bool("dis", false, "disassemble the program to stdout")
	out := flag.String("o", "", "write the binary program to this file")
	in := flag.String("in", "", "load the binary program from this file instead of compiling")
	run := flag.Bool("run", false, "run the program's inference on a synthetic input")
	timeIt := flag.Bool("time", false, "price the program instruction by instruction")
	seed := flag.Int64("seed", 1, "synthetic weight/input seed")
	flag.Parse()

	if err := mainErr(*model, *shape, *strategy, *dis, *out, *in, *run, *timeIt, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "gcprog:", err)
		os.Exit(1)
	}
}

func mainErr(modelName, shapeText, strategyText string, dis bool, out, in string, run, timeIt bool, seed int64) error {
	m, err := dnn.ByName(modelName)
	if err != nil {
		return err
	}
	var st accel.Strategy
	if strategyText != "" {
		st, err = accel.ParseStrategy(strategyText)
	} else {
		var s xbar.Shape
		s, err = xbar.ParseShape(shapeText)
		st = accel.Homogeneous(m.NumMappable(), s)
	}
	if err != nil {
		return err
	}
	plan, err := accel.BuildPlan(hw.DefaultConfig(), m, st, true)
	if err != nil {
		return err
	}

	var prog *isa.Program
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err = isa.Decode(f)
		if err != nil {
			return err
		}
	} else {
		prog, err = isa.Compile(plan)
		if err != nil {
			return err
		}
	}
	if err := isa.Validate(prog, plan); err != nil {
		return err
	}
	fmt.Printf("program: %d instructions (%d bytes encoded)\n", len(prog.Instrs), len(prog.Bytes()))

	if dis {
		if err := prog.Disassemble(os.Stdout); err != nil {
			return err
		}
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := prog.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if timeIt {
		tp, err := isa.Time(prog, plan)
		if err != nil {
			return err
		}
		fmt.Printf("weight programming (one-time): %.4g ns\n", tp.ProgramNS)
		fmt.Printf("inference critical path:       %.4g ns over %d instructions\n",
			tp.InferenceNS, len(tp.CriticalPath()))
		fmt.Println("top critical-path instructions:")
		path := tp.CriticalPath()
		for i := 0; i < len(path) && i < 8; i++ {
			fmt.Printf("  %04d  %-28s %.4g ns\n", path[i].PC, path[i].Instr, path[i].Latency)
		}
	}
	if run {
		input := dnn.SyntheticTensor(m.InC, m.InH, m.InW, seed)
		outVec, _, err := sim.NewEngine(plan).Run(input, sim.InferenceOptions{Seed: seed})
		if err != nil {
			return err
		}
		top := 0
		for i, v := range outVec {
			if v > outVec[top] {
				top = i
			}
		}
		fmt.Printf("executed: %d outputs, argmax=%d (%.4g)\n", len(outVec), top, outVec[top])
	}
	return nil
}
