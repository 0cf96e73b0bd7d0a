package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"autohet/internal/dnn"
)

func TestBenchMVMTinyModel(t *testing.T) {
	m, err := dnn.NewModel("tiny", 8, 8, 3, []*dnn.Layer{
		{Name: "c1", Kind: dnn.Conv, K: 3, InC: 3, OutC: 8, Stride: 1, Pad: 1},
		{Name: "f1", Kind: dnn.FC, K: 1, InC: 8 * 8 * 8, OutC: 4, Stride: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchMVMModel(m, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Kernel.BitExact {
		t.Fatal("kernel leg must verify bit-exactness before timing")
	}
	if b.Kernel.PackedNsPerMVM <= 0 || b.Kernel.ScalarNsPerMVM <= 0 {
		t.Fatalf("kernel timings missing: %+v", b.Kernel)
	}
	if b.Kernel.Speedup <= 1 {
		t.Fatalf("packed kernel slower than scalar: %+v", b.Kernel)
	}
	if len(b.KernelBatch) != 4 {
		t.Fatalf("kernel batch sweep has %d legs, want 4", len(b.KernelBatch))
	}
	for i, B := range []int{1, 8, 32, 128} {
		kl := b.KernelBatch[i]
		if kl.Batch != B {
			t.Fatalf("kernel batch leg %d has batch %d, want %d", i, kl.Batch, B)
		}
		if !kl.BitExact {
			t.Fatalf("kernel batch leg B=%d not verified bit-exact", B)
		}
		if kl.NsPerMVM <= 0 || kl.MVMsPerSec <= 0 || kl.SpeedupVsB1 <= 0 {
			t.Fatalf("kernel batch leg B=%d timings missing: %+v", B, kl)
		}
	}
	e := b.EndToEnd
	if !e.BitExactMatchesFast {
		t.Fatal("end-to-end leg must verify bit-exact == fast")
	}
	if e.MVMsPerInference != int64(8*8+1) {
		t.Fatalf("MVMs per inference %d, want %d", e.MVMsPerInference, 8*8+1)
	}
	if e.InferencesPerSec <= 0 || e.WallSecondsPerInf <= 0 || e.ScalarEstimateSecs <= 0 {
		t.Fatalf("end-to-end timings missing: %+v", e)
	}
	if e.BitExactInfPerSec <= 0 || e.BitExactSecsPerInf <= 0 {
		t.Fatalf("bit-exact end-to-end timings missing: %+v", e)
	}
	if len(e.ServeBatch) != 3 {
		t.Fatalf("serve sweep has %d legs, want 3", len(e.ServeBatch))
	}
	for i, B := range []int{1, 8, 32} {
		sl := e.ServeBatch[i]
		if sl.Batch != B || sl.InferencesPerSec <= 0 {
			t.Fatalf("serve leg %d malformed: %+v", i, sl)
		}
	}
	if e.ServeBatch[0].InferencesPerSec != e.InferencesPerSec {
		t.Fatalf("headline throughput %.3f must be the batch-1 serve leg %.3f",
			e.InferencesPerSec, e.ServeBatch[0].InferencesPerSec)
	}

	path := filepath.Join(t.TempDir(), "BENCH_mvm.json")
	if err := b.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back MVMBench
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Kernel.Speedup != b.Kernel.Speedup || back.EndToEnd.Model != "tiny" {
		t.Fatalf("JSON round trip lost fields: %+v", back)
	}
	if len(back.KernelBatch) != len(b.KernelBatch) || back.KernelBatchLeg(32) == nil {
		t.Fatalf("JSON round trip lost kernel batch legs: %+v", back.KernelBatch)
	}
	if back.Machine != b.Machine || b.Machine.GOMAXPROCS < 1 || b.Machine.NumCPU < 1 || b.Machine.GoVersion == "" || b.Machine.CPU == "" {
		t.Fatalf("machine stamp missing or lost in JSON round trip: %+v, back %+v", b.Machine, back.Machine)
	}
}

// TestKernelBatchAmortizationSmoke is the CI bench smoke: on a quiet machine
// the batched kernel at B=32 must amortize the per-MVM plane walk at least
// 4x over B=1. Timing-sensitive, so it only runs when asked for explicitly
// (AUTOHET_BENCH_SMOKE=1).
func TestKernelBatchAmortizationSmoke(t *testing.T) {
	if os.Getenv("AUTOHET_BENCH_SMOKE") == "" {
		t.Skip("set AUTOHET_BENCH_SMOKE=1 to run the timing-sensitive bench smoke")
	}
	legs, err := benchMVMKernelBatch(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b32 *MVMKernelBatchLeg
	for i := range legs {
		switch legs[i].Batch {
		case 1:
			b1 = &legs[i]
		case 32:
			b32 = &legs[i]
		}
	}
	if b1 == nil || b32 == nil {
		t.Fatalf("sweep missing B=1 or B=32 leg: %+v", legs)
	}
	t.Logf("kernel amortization: B=1 %.0f ns/MVM, B=32 %.0f ns/MVM (%.1fx)",
		b1.NsPerMVM, b32.NsPerMVM, b32.SpeedupVsB1)
	if b32.SpeedupVsB1 < 4 {
		t.Fatalf("B=32 kernel leg amortizes only %.2fx over B=1, want >= 4x", b32.SpeedupVsB1)
	}
}
