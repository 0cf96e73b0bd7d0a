// Package cpufeat reports the CPU features the hand-written kernels in
// package quant (integer MVM) and package nn (float64 dense layers) need.
// It exists so the CPUID/XGETBV probe is written once; it has no
// dependencies and no settings.
package cpufeat
