// Multi-tenant co-location: §3.4 notes that tiles freed by the tile-shared
// scheme "become available for other layers in the DNN model or other
// models". This example maps AlexNet and VGG16 onto the SAME bank and
// compares three deployments: separate tile-based banks, separate
// tile-shared banks, and a fused bank where the two models' layers share
// tiles with each other.
//
//	go run ./examples/multi_tenant
package main

import (
	"fmt"
	"log"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/search"
	"autohet/internal/xbar"
)

func main() {
	cfg := hw.DefaultConfig()
	// Bigger tiles make tile-based wastage (and thus the value of sharing)
	// visible — the Fig. 11(c) regime.
	cfg.PEsPerTile = 16
	shape := xbar.Rect(288, 256)
	models := []*dnn.Model{dnn.AlexNet(), dnn.VGG16()}

	tiles := func(m *dnn.Model, shared bool) int {
		env, err := search.NewEnv(cfg, m, []xbar.Shape{shape}, shared)
		if err != nil {
			log.Fatal(err)
		}
		r, err := env.Evaluator().EvalStrategy(accel.Homogeneous(m.NumMappable(), shape))
		if err != nil {
			log.Fatal(err)
		}
		return r.OccupiedTiles
	}

	sepPlain := tiles(models[0], false) + tiles(models[1], false)
	sepShared := tiles(models[0], true) + tiles(models[1], true)

	fused, err := dnn.Concat("AlexNet+VGG16", models...)
	if err != nil {
		log.Fatal(err)
	}
	fusedShared := tiles(fused, true)

	fmt.Printf("deploying AlexNet + VGG16 on %v crossbars (%d slots/tile)\n\n", shape, cfg.PEsPerTile)
	fmt.Printf("%-44s %s\n", "deployment", "occupied tiles")
	fmt.Printf("%-44s %d\n", "separate banks, tile-based", sepPlain)
	fmt.Printf("%-44s %d\n", "separate banks, tile-shared (per model)", sepShared)
	fmt.Printf("%-44s %d\n", "one bank, cross-model tile sharing", fusedShared)
	fmt.Printf("\ncross-model sharing saves %d tiles vs per-model sharing and %d vs tile-based\n",
		sepShared-fusedShared, sepPlain-fusedShared)
}
