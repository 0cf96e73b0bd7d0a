// Edge deployment: the paper motivates AutoHet with mobile/edge settings
// where chip area and battery energy are hard constraints (§1, §2.2). This
// example sweeps the candidate accelerators for AlexNet/MNIST against an
// area budget and a per-inference energy budget, then shows which designs
// fit and which maximizes RUE inside the envelope.
//
//	go run ./examples/edge_deploy
package main

import (
	"fmt"
	"log"

	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/search"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

const (
	areaBudgetUM2  = 5.0e8 // 500 mm² edge SoC budget
	energyBudgetNJ = 4.0e5 // per-inference energy budget
)

func main() {
	model := dnn.AlexNet()
	fmt.Println("workload:", model)
	fmt.Printf("budgets:  area ≤ %.3g µm², energy ≤ %.3g nJ/inference\n\n", areaBudgetUM2, energyBudgetNJ)

	env, err := search.NewEnv(hw.DefaultConfig(), model, xbar.DefaultCandidates(), true)
	if err != nil {
		log.Fatal(err)
	}

	type design struct {
		name   string
		result *sim.Result
	}
	var designs []design

	homos, _, err := search.BestHomogeneous(env, xbar.SquareCandidates())
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range homos {
		designs = append(designs, design{"homogeneous " + h.Strategy[0].String(), h.Result})
	}

	opts := search.DefaultOptions()
	opts.Rounds = 100
	res, err := search.AutoHet(env, opts)
	if err != nil {
		log.Fatal(err)
	}
	designs = append(designs, design{"AutoHet", res.BestResult})

	fmt.Printf("%-22s %-12s %-14s %-10s %-6s\n", "design", "area (µm²)", "energy (nJ)", "RUE", "fits?")
	bestIdx := -1
	for i, d := range designs {
		fits := d.result.AreaUM2 <= areaBudgetUM2 && d.result.EnergyNJ <= energyBudgetNJ
		mark := "no"
		if fits {
			mark = "yes"
			if bestIdx == -1 || d.result.RUE() > designs[bestIdx].result.RUE() {
				bestIdx = i
			}
		}
		fmt.Printf("%-22s %-12.4g %-14.4g %-10.4g %-6s\n",
			d.name, d.result.AreaUM2, d.result.EnergyNJ, d.result.RUE(), mark)
	}
	if bestIdx == -1 {
		fmt.Println("\nno design fits the envelope — relax a budget or shrink the model")
		return
	}
	fmt.Printf("\nbest in-envelope design: %s (RUE %.4g)\n",
		designs[bestIdx].name, designs[bestIdx].result.RUE())
}
