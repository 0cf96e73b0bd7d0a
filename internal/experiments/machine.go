package experiments

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"autohet/internal/quant"
)

// Machine describes the host a benchmark document was measured on, so a
// committed BENCH_*.json names the hardware, and the integer kernel that ran
// on it, behind its numbers.
type Machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// IntKernel is the integer MVM kernel the fast path ran (see
	// quant.IntKernel): "avx512vnni", "avx2" or "scalar".
	IntKernel string `json:"int_kernel"`
}

// HostMachine describes the running host. CPU is the first "model name" in
// /proc/cpuinfo, or "unknown" where that file is absent.
func HostMachine() Machine {
	m := Machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), IntKernel: quant.IntKernel()}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return m
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}
